package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"textjoin"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

// config describes the workspace the server builds at startup and the
// admission-control envelope it serves under.
type config struct {
	P1, P2      string
	Scale       int64
	Seed        int64
	MemoryPages int64
	Alpha       float64
	Lambda      int
	// BudgetBytes caps the summed footprint of concurrently running
	// joins; QueueLen and QueueWait bound the FIFO wait queue behind
	// it. A footprint larger than the budget is charged all of it, so
	// a budget of 0 runs one join at a time (the pre-concurrency
	// behavior; bench-load's baseline server).
	BudgetBytes int64
	QueueLen    int
	QueueWait   time.Duration
	// IODelay charges every simulated page read that much real time
	// (default 0), modeling device latency for serving benchmarks.
	IODelay time.Duration
	// TraceSeed seeds the request tracer's deterministic ID stream;
	// RecorderCap bounds the flight recorder (N slowest + N most
	// recent finished request traces behind /debug/requests).
	TraceSeed   uint64
	RecorderCap int
	// The SLO layer: availability (join outcomes) and latency
	// (http.request.join.ns against SLOLatency) objectives evaluated
	// over a rolling SLOWindow and exported as textjoin_slo_* gauges.
	SLOWindow        time.Duration
	SLOAvailTarget   float64
	SLOLatencyTarget float64
	SLOLatency       time.Duration
}

func defaultConfig() config {
	return config{
		P1:          "wsj",
		P2:          "wsj",
		Scale:       2048,
		Seed:        1,
		MemoryPages: 10000,
		Alpha:       5,
		Lambda:      5,
		BudgetBytes: 256 << 20,
		QueueLen:    64,
		QueueWait:   2 * time.Second,

		TraceSeed:        1,
		RecorderCap:      reqtrace.DefaultRecorderCap,
		SLOWindow:        textjoin.DefaultSLOWindow,
		SLOAvailTarget:   0.99,
		SLOLatencyTarget: 0.95,
		SLOLatency:       2 * time.Second,
	}
}

// server owns the workspace, the telemetry collector and the exporter.
// Joins run concurrently: each request executes on a private I/O view of
// the workspace disk (its own head positions and counters over the same
// immutable pages), so overlapping joins return results and stats
// byte-identical to serial runs. The admitter bounds how many run at
// once by their estimated memory footprints; /metrics, /debug/requests
// and /healthz bypass admission entirely and stay responsive under load.
type server struct {
	cfg        config
	ws         *textjoin.Workspace
	c1, c2     *textjoin.Collection
	inv1       *textjoin.InvertedFile
	inv2       *textjoin.InvertedFile
	sig1, sig2 *textjoin.SignatureSidecar
	lsh1       *textjoin.LSHSidecar
	tel        *textjoin.Telemetry
	exporter   *textjoin.MetricsExporter
	tracer     *textjoin.RequestTracer
	recorder   *textjoin.FlightRecorder
	slo        *textjoin.SLOEngine
	adm        *admitter
	start      time.Time

	joins atomic.Int64
}

func newServer(cfg config) (*server, error) {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(cfg.Alpha), textjoin.WithIODelay(cfg.IODelay))
	c1, err := ws.GenerateProfile("c1", cfg.P1, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c2, err := ws.GenerateProfile("c2", cfg.P2, cfg.Scale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		return nil, err
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		return nil, err
	}
	sig1, err := ws.BuildSignatures(c1, textjoin.SignatureConfig{})
	if err != nil {
		return nil, err
	}
	sig2, err := ws.BuildSignatures(c2, textjoin.SignatureConfig{})
	if err != nil {
		return nil, err
	}
	// The MinHash sidecar covers the inner collection only: LSH generates
	// candidates per outer document on the fly, so the outer side never
	// needs one.
	lsh1, err := ws.BuildLSH(c1, textjoin.LSHConfig{})
	if err != nil {
		return nil, err
	}

	// Load both term indexes up front: the one-time B+tree sweep is
	// charged to startup, not to whichever request happens to arrive
	// first — per-request I/O stats stay identical from the first join.
	if _, err := inv1.LoadIndex(); err != nil {
		return nil, err
	}
	if _, err := inv2.LoadIndex(); err != nil {
		return nil, err
	}

	tel := textjoin.NewTelemetry()
	ws.ResetIOStats()
	ws.SetTelemetry(tel)

	// The SLO layer reads the same collector the joins write: the
	// availability objective classifies join outcomes, the latency
	// objective classifies the per-request /join latency histogram.
	sloEng, err := textjoin.NewSLOEngine(tel, cfg.SLOWindow, []textjoin.SLOObjective{
		{
			Name:   "availability",
			Target: cfg.SLOAvailTarget,
			Good:   []string{"http.join.ok"},
			Bad:    []string{"http.join.err", "http.rejected"},
		},
		{
			Name:           "latency",
			Target:         cfg.SLOLatencyTarget,
			Histogram:      "http.request.join.ns",
			ThresholdNanos: cfg.SLOLatency.Nanoseconds(),
		},
	})
	if err != nil {
		return nil, err
	}
	return &server{
		cfg:      cfg,
		ws:       ws,
		c1:       c1,
		c2:       c2,
		inv1:     inv1,
		inv2:     inv2,
		sig1:     sig1,
		sig2:     sig2,
		lsh1:     lsh1,
		tel:      tel,
		exporter: textjoin.NewMetricsExporter(tel, sloEng),
		tracer:   textjoin.NewRequestTracer(cfg.TraceSeed),
		recorder: textjoin.NewFlightRecorder(cfg.RecorderCap),
		slo:      sloEng,
		adm:      newAdmitter(cfg.BudgetBytes, cfg.QueueLen, cfg.QueueWait, tel),
		start:    time.Now(),
	}, nil
}

func (s *server) describe() string {
	st1, st2 := s.c1.Stats(), s.c2.Stats()
	return fmt.Sprintf("C1=%s/%d (N=%d K=%.1f) C2=%s/%d (N=%d K=%.1f) mem=%d alpha=%.1f",
		s.cfg.P1, s.cfg.Scale, st1.N, st1.K, s.cfg.P2, s.cfg.Scale, st2.N, st2.K,
		s.cfg.MemoryPages, s.cfg.Alpha)
}

// timed wraps a handler with the per-endpoint request-latency histogram.
func (s *server) timed(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		h.ServeHTTP(w, r)
		s.tel.Histogram("http.request."+endpoint+".ns", telemetry.DefaultLatencyBuckets).
			Observe(time.Since(begin).Nanoseconds())
	})
}

// traced wraps a handler with a request-scoped trace: it opens a root
// span for every request (linking to the caller's trace when a
// Traceparent header is present), exposes it to the handler through the
// request context, echoes the trace identity in the response
// Traceparent header, and finishes the trace when the handler returns —
// on every path, including panics unwinding through the deferred call.
func (s *server) traced(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var span *textjoin.RequestSpan
		if remote, parent, err := reqtrace.ParseTraceparent(r.Header.Get(reqtrace.TraceparentHeader)); err == nil {
			span = s.tracer.StartLinkedTrace(name, remote, parent)
		} else {
			span = s.tracer.StartTrace(name)
		}
		if span != nil {
			w.Header().Set(reqtrace.TraceparentHeader,
				reqtrace.FormatTraceparent(span.TraceID(), span.SpanID()))
		}
		defer s.finishTrace(span)
		h.ServeHTTP(w, r.WithContext(reqtrace.NewContext(r.Context(), span)))
	})
}

// finishTrace seals a request's trace and files it twice: whole in the
// flight recorder, and span by span in the per-phase duration
// histograms, which are thereby the tree's own measurements.
func (s *server) finishTrace(span *textjoin.RequestSpan) {
	s.recorder.Record(span)
	reqtrace.ObservePhases(s.tel, span.Data())
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/join", s.timed("join", s.traced("join", http.HandlerFunc(s.handleJoin))))
	mux.Handle("/metrics", s.timed("metrics", s.exporter))
	debugRequests := s.timed("debug_requests", textjoin.FlightRecorderHandler(s.recorder, "/debug/requests"))
	mux.Handle("/debug/requests", debugRequests)
	mux.Handle("/debug/requests/", debugRequests)
	mux.Handle("/healthz", s.timed("healthz", http.HandlerFunc(s.handleHealth)))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st1, st2 := s.c1.Stats(), s.c2.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"joins":          s.joins.Load(),
		"collections": []map[string]any{
			{"name": "c1", "profile": s.cfg.P1, "docs": st1.N, "terms": st1.T, "pages": st1.D},
			{"name": "c2", "profile": s.cfg.P2, "docs": st2.N, "terms": st2.T, "pages": st2.D},
		},
	})
}

// joinResponse is the header of the /join reply; writeJoinReply streams
// the result rows after it. WallSeconds is the request's total
// residence time; QueueSeconds is the share spent parked in the
// admission queue and ExecSeconds the share actually executing the join,
// so saturation (queue growth) is distinguishable from slow joins.
type joinResponse struct {
	TraceID      string          `json:"trace_id,omitempty"`
	Algorithm    string          `json:"algorithm"`
	Integrated   bool            `json:"integrated"`
	Lambda       int             `json:"lambda"`
	OuterDocs    int64           `json:"outer_docs"`
	InnerDocs    int64           `json:"inner_docs"`
	Passes       int             `json:"passes"`
	SeqReads     int64           `json:"seq_reads"`
	RandReads    int64           `json:"rand_reads"`
	Cost         float64         `json:"cost"`
	WallSeconds  float64         `json:"wall_seconds"`
	QueueSeconds float64         `json:"queue_seconds"`
	ExecSeconds  float64         `json:"exec_seconds"`
	Prefilter    *prefilterStats `json:"prefilter,omitempty"`
	LSH          *lshStats       `json:"lsh,omitempty"`
}

// lshStats reports the approximate join's candidate generation outcome.
type lshStats struct {
	BucketProbes int64 `json:"bucket_probes"`
	Candidates   int64 `json:"candidates"`
	PagesSkipped int64 `json:"pages_skipped"`
	DocsSkipped  int64 `json:"docs_skipped"`
}

// prefilterStats reports the signature prefilter's pruning outcome.
type prefilterStats struct {
	PagesSkipped    int64 `json:"pages_skipped"`
	ClustersSkipped int64 `json:"clusters_skipped"`
	DocsSkipped     int64 `json:"docs_skipped"`
	FalsePasses     int64 `json:"false_passes"`
}

// handleJoin runs one join, on the request's goroutine. Parameters: alg
// (auto, hhnl, hvnl, vvm, lsh; default auto), lambda, weighting (raw,
// cosine, tfidf), show (result rows to include, default 3), prefilter (on,
// off; default off) to offer the signature sidecars to the join — results
// are byte-identical either way, only the I/O pattern changes. mode
// (exact, lsh; default exact) set to lsh runs the approximate MinHash join
// (alg=lsh is the same request), and recall in (0, 1] offers the LSH plan
// to alg=auto's planner under that recall SLO. Any other parameter is
// ignored.
//
// Every parameter is validated before the request is admitted, so a
// malformed request never occupies budget or queue space. Admitted
// requests run on a private I/O view and release their footprint when
// done. Failure classes map to distinct statuses: bad parameters → 400,
// admission rejection → 503 (with Retry-After), a join the workspace
// cannot run (memory budget, missing structure) → 422, anything else →
// 500.
func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	span := reqtrace.FromContext(r.Context())
	algName := param(r, "alg", "auto")
	var alg textjoin.Algorithm // unused under alg=auto
	var err error
	if algName != "auto" {
		if alg, err = textjoin.ParseAlgorithm(algName); err != nil {
			s.joinError(w, span, http.StatusBadRequest, err)
			return
		}
	}
	lambda, err := intParam(r, "lambda", s.cfg.Lambda)
	if err == nil && lambda <= 0 {
		err = fmt.Errorf("lambda must be positive")
	}
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	show, err := intParam(r, "show", 3)
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	weighting, err := textjoin.ParseWeighting(param(r, "weighting", "raw"))
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	prefilter := param(r, "prefilter", "off")
	if prefilter != "on" && prefilter != "off" {
		s.joinError(w, span, http.StatusBadRequest, fmt.Errorf("parameter prefilter: want on or off, got %q", prefilter))
		return
	}
	mode := param(r, "mode", "exact")
	if mode != "exact" && mode != "lsh" {
		s.joinError(w, span, http.StatusBadRequest, fmt.Errorf("parameter mode: want exact or lsh, got %q", mode))
		return
	}
	if algName == "lsh" {
		mode = "lsh"
	} else if mode == "lsh" {
		alg = textjoin.LSH
	}
	recall, err := floatParam(r, "recall", 0)
	if err == nil && recall != 0 && (recall <= 0 || recall > 1) {
		err = fmt.Errorf("parameter recall: want a value in (0, 1], got %v", recall)
	}
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}

	// The accepted request parameters, stamped on the root span so a
	// trace is self-describing.
	span.SetAttr("join.alg", algName)
	span.SetAttr("join.mode", mode)
	span.SetInt("join.lambda", int64(lambda))
	span.SetAttr("join.prefilter", prefilter)
	if recall != 0 {
		span.SetFloat("join.recall_slo", recall)
	}

	// Admission: charge the estimated footprint against the budget.
	family := algName
	if mode == "lsh" {
		family = "lsh"
	}
	cost := s.footprintBytes(family, lambda)
	qspan := span.StartChild("queue", "admission")
	qspan.SetInt("queue.cost_bytes", cost)
	queued, err := s.adm.admit(cost)
	qspan.SetInt("queue.wait_ns", queued.Nanoseconds())
	if err != nil {
		qspan.SetAttr("queue.rejected", "true")
		qspan.End()
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueWait))
		s.joinError(w, span, http.StatusServiceUnavailable, err)
		return
	}
	qspan.End()
	defer s.adm.release(cost)

	// Snapshot: bind the inputs to a private I/O view so this join's
	// page reads move private head positions and counters.
	snap := span.StartChild("snapshot", "view")
	v := s.ws.Snapshot()
	defer v.Close()
	in := textjoin.Inputs{Outer: s.c2, Inner: s.c1, InnerInv: s.inv1, OuterInv: s.inv2}
	in, err = in.WithView(v)
	snap.End()
	if err != nil {
		s.joinError(w, span, http.StatusInternalServerError, err)
		return
	}
	exec := span.StartChild("exec", "join "+algName)
	opts := textjoin.Options{
		Lambda:      lambda,
		MemoryPages: s.cfg.MemoryPages,
		Weighting:   weighting,
		Telemetry:   s.tel,
		Trace:       exec,
	}
	if prefilter == "on" {
		opts.Prefilter = &textjoin.Prefilter{Inner: s.sig1, Outer: s.sig2}
	}
	if mode == "lsh" || recall != 0 {
		opts.LSH = s.lsh1
		opts.RecallSLO = recall
	}

	resp := joinResponse{Lambda: lambda}
	var results []textjoin.Result
	var stats *textjoin.JoinStats

	execBegin := time.Now()
	if algName == "auto" && mode != "lsh" {
		results, stats, _, err = textjoin.JoinIntegrated(in, opts)
		resp.Integrated = true
	} else {
		results, stats, err = textjoin.Join(alg, in, opts)
	}
	// The reply's exec_seconds is the exec span's interval: both clocks
	// stop here, before the view's I/O breakdown is formatted.
	execSeconds := time.Since(execBegin).Seconds()
	exec.End()
	recordViewIO(span, v)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, textjoin.ErrInsufficientMemory) || errors.Is(err, textjoin.ErrMissingInput) {
			status = http.StatusUnprocessableEntity
		}
		s.joinError(w, span, status, err)
		return
	}
	// Everything from here to the last byte handed to the connection:
	// result digest, streamed JSON encode and write.
	reply := span.StartChild("reply", "encode")
	defer reply.End()
	s.joins.Add(1)
	s.tel.Counter("query.joins").Add(1)
	s.tel.Counter("http.join.ok").Add(1)
	span.SetInt("http.status", http.StatusOK)
	span.SetAttr("join.chosen", stats.Algorithm.String())
	span.SetInt("result.rows", int64(len(results)))
	span.SetAttr("result.hash", textjoin.ResultDigest(results))
	resp.TraceID = traceIDString(span)

	resp.Algorithm = stats.Algorithm.String()
	resp.OuterDocs = stats.OuterDocs
	resp.InnerDocs = stats.InnerDocs
	resp.Passes = stats.Passes
	resp.SeqReads = stats.IO.SeqReads
	resp.RandReads = stats.IO.RandReads
	resp.Cost = stats.Cost
	resp.WallSeconds = time.Since(begin).Seconds()
	resp.QueueSeconds = queued.Seconds()
	resp.ExecSeconds = execSeconds
	if stats.Prefilter.Enabled {
		resp.Prefilter = &prefilterStats{
			PagesSkipped:    stats.Prefilter.PagesSkipped,
			ClustersSkipped: stats.Prefilter.ClustersSkipped,
			DocsSkipped:     stats.Prefilter.DocsSkipped,
			FalsePasses:     stats.Prefilter.FalsePasses,
		}
	}
	if stats.LSH.Enabled {
		resp.LSH = &lshStats{
			BucketProbes: stats.LSH.BucketProbes,
			Candidates:   stats.LSH.Candidates,
			PagesSkipped: stats.LSH.PagesSkipped,
			DocsSkipped:  stats.LSH.DocsSkipped,
		}
	}
	if err := writeJoinReply(w, &resp, results, show); err != nil {
		reply.SetAttr("error", err.Error())
	}
}

// traceIDString is the request's trace ID, or "" when tracing is off.
func traceIDString(span *textjoin.RequestSpan) string {
	if span == nil {
		return ""
	}
	return span.TraceID().String()
}

// joinError finishes a failed /join: it stamps the outcome on the root
// span, counts the failure for the availability SLO (503 rejections are
// already counted by the admitter as http.rejected), and answers with
// the error and the trace ID so the caller can pull the full tree from
// /debug/requests.
func (s *server) joinError(w http.ResponseWriter, span *textjoin.RequestSpan, status int, err error) {
	span.SetInt("http.status", int64(status))
	span.SetAttr("error", err.Error())
	if status != http.StatusServiceUnavailable {
		s.tel.Counter("http.join.err").Add(1)
	}
	body := map[string]string{"error": err.Error()}
	if id := traceIDString(span); id != "" {
		body["trace_id"] = id
	}
	writeJSON(w, status, body)
}

// recordViewIO hangs one "io" span off the request with the view's
// per-file page-read breakdown — which files this request touched, and
// how sequentially.
func recordViewIO(span *textjoin.RequestSpan, v *textjoin.IOView) {
	if span == nil {
		return
	}
	io := span.StartChild("io", "view")
	var seq, rand, writes int64
	for _, fs := range v.FileStats() {
		if fs.Stats.Reads() == 0 && fs.Stats.Writes == 0 {
			continue
		}
		io.SetAttr("io.file."+fs.Name, fmt.Sprintf("seq=%d rand=%d writes=%d",
			fs.Stats.SeqReads, fs.Stats.RandReads, fs.Stats.Writes))
		seq += fs.Stats.SeqReads
		rand += fs.Stats.RandReads
		writes += fs.Stats.Writes
	}
	io.SetInt("io.seq_reads", seq)
	io.SetInt("io.rand_reads", rand)
	io.SetInt("io.writes", writes)
	io.End()
}

// retryAfter renders the admission deadline as a whole-second
// Retry-After value (at least 1): after one deadline's worth of drain,
// the queue that rejected this request has turned over.
func retryAfter(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func param(r *http.Request, name, def string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return def
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %v", name, err)
	}
	return n, nil
}

func floatParam(r *http.Request, name string, def float64) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %v", name, err)
	}
	return f, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore errdrop an encode error here means the client hung up; the handler has no recourse
	json.NewEncoder(w).Encode(v)
}
