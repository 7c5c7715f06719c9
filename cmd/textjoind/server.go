package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"textjoin"
	"textjoin/internal/freelist"
	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
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
	// BudgetBytes caps the summed plan bytes of concurrently running
	// joins; QueueLen and QueueWait bound the FIFO wait queue behind
	// it. A plan larger than the budget is charged all of it, so
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
	// (textjoin_http_request_ns{endpoint="join"} against SLOLatency)
	// objectives evaluated
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
// once by the bytes their plans hold; /metrics, /debug/requests
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

	// The SLO layer reads the same collector the requests fill: the
	// availability objective classifies join outcomes, the latency
	// objective classifies the per-request /join latency histogram.
	sloEng, err := textjoin.NewSLOEngine(tel, cfg.SLOWindow, []textjoin.SLOObjective{
		{
			Name:   "availability",
			Target: cfg.SLOAvailTarget,
			Good:   []string{"textjoin_http_join_ok_total"},
			Bad:    []string{"textjoin_http_join_err_total", "textjoin_http_rejected_total"},
		},
		{
			Name:           "latency",
			Target:         cfg.SLOLatencyTarget,
			Histogram:      `textjoin_http_request_ns{endpoint="join"}`,
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
		s.tel.Histogram("textjoin_http_request_ns", metrics.DefaultLatencyBuckets, "endpoint", endpoint).
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
	textjoin.ObservePhases(s.tel, span)
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
		"joins":          s.tel.Value("textjoin_http_join_ok_total"),
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
	TraceID      string                   `json:"trace_id,omitempty"`
	Algorithm    string                   `json:"algorithm"`
	Integrated   bool                     `json:"integrated"`
	Lambda       int                      `json:"lambda"`
	OuterDocs    int64                    `json:"outer_docs"`
	InnerDocs    int64                    `json:"inner_docs"`
	Passes       int                      `json:"passes"`
	SeqReads     int64                    `json:"seq_reads"`
	RandReads    int64                    `json:"rand_reads"`
	Cost         float64                  `json:"cost"`
	WallSeconds  float64                  `json:"wall_seconds"`
	QueueSeconds float64                  `json:"queue_seconds"`
	ExecSeconds  float64                  `json:"exec_seconds"`
	Prefilter    *textjoin.PrefilterStats `json:"prefilter,omitempty"`
	LSH          *textjoin.LSHStats       `json:"lsh,omitempty"`
}

// handleJoin runs one join, on the request's goroutine. Parameters: alg
// (auto, hhnl, hvnl, vvm, lsh; default auto), lambda, weighting (raw,
// cosine, tfidf), show (result rows to include, default 3), prefilter (on,
// off; default off) to offer the signature sidecars to the join — results
// are byte-identical either way, only HHNL's inner reads change. mode
// (exact, lsh; default exact) set to lsh runs the approximate MinHash join
// (alg=lsh is the same request), and recall in (0, 1] offers the LSH plan
// to alg=auto's planner under that recall SLO. Any other parameter is
// ignored.
//
// A request is validated, then planned, then admitted: a malformed
// request never occupies budget or queue space, and neither does a join
// the workspace cannot run. The admitter charges the plan's PeakBytes;
// the admitted request binds a private I/O view, runs that same plan and
// releases the charge when done. Failure classes map to distinct
// statuses: bad parameters → 400, a join the workspace cannot run (memory
// budget, missing structure) → 422, admission rejection → 503 (with
// Retry-After), anything else → 500.
func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	span := reqtrace.FromContext(r.Context())
	q := r.URL.Query()
	algName := param(q, "alg", "auto")
	alg, err := textjoin.ParseAlgorithm(algName)
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	lambda, err := intParam(q, "lambda", s.cfg.Lambda)
	if err == nil && lambda <= 0 {
		err = fmt.Errorf("lambda must be positive")
	}
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	show, err := intParam(q, "show", 3)
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	weighting, err := textjoin.ParseWeighting(param(q, "weighting", "raw"))
	if err != nil {
		s.joinError(w, span, http.StatusBadRequest, err)
		return
	}
	prefilter := param(q, "prefilter", "off")
	if prefilter != "on" && prefilter != "off" {
		s.joinError(w, span, http.StatusBadRequest, fmt.Errorf("parameter prefilter: want on or off, got %q", prefilter))
		return
	}
	mode := param(q, "mode", "exact")
	if mode != "exact" && mode != "lsh" {
		s.joinError(w, span, http.StatusBadRequest, fmt.Errorf("parameter mode: want exact or lsh, got %q", mode))
		return
	}
	if mode == "lsh" {
		alg = textjoin.LSH
	} else if alg == textjoin.LSH {
		mode = "lsh"
	}
	recall, err := floatParam(q, "recall", 0)
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

	opts := textjoin.Options{
		Lambda:      lambda,
		MemoryPages: s.cfg.MemoryPages,
		Weighting:   weighting,
		Trace:       span,
	}
	if prefilter == "on" {
		opts.Prefilter = &textjoin.Prefilter{Inner: s.sig1, Outer: s.sig2}
	}
	if mode == "lsh" || recall != 0 {
		opts.LSH = s.lsh1
		opts.RecallSLO = recall
	}
	in := textjoin.Inputs{Outer: s.c2, Inner: s.c1, InnerInv: s.inv1, OuterInv: s.inv2}
	dec, err := textjoin.Plan(alg, in, opts)
	// However the request ends from here on, its counters reach the
	// collector once: the plan's, the join's if it completed, and the
	// page reads of its view if it bound one.
	var stats *textjoin.JoinStats
	var v *textjoin.IOView
	var files []textjoin.IOFileStat // v's, taken once the join is done
	defer func() {
		if v != nil && files == nil {
			files = v.FileStats()
		}
		textjoin.RecordJoin(s.tel, dec, stats, files)
	}()
	if err != nil {
		s.joinError(w, span, joinStatus(err), err)
		return
	}

	// Admission: charge the plan's bytes against the budget.
	qspan := span.StartChild("queue", "admission")
	qspan.SetInt("queue.cost_bytes", dec.PeakBytes)
	queued, err := s.adm.admit(dec.PeakBytes)
	qspan.SetInt("queue.wait_ns", queued.Nanoseconds())
	if err != nil {
		qspan.SetAttr("queue.rejected", "true")
		qspan.End()
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueWait))
		s.joinError(w, span, http.StatusServiceUnavailable, err)
		return
	}
	qspan.End()
	defer s.adm.release(dec.PeakBytes)
	// The admitted request's row set and reply buffer, given back once
	// the reply is written or the request has failed — unless its rows
	// would outgrow what an idle set may keep (a huge λ): such a join
	// works in a set of its own, which the collector takes after it.
	var set *replySet
	if setRowBytes(in, lambda) <= maxIdleRowBytes {
		set = replySets.Get()
		defer replySets.Put(set)
	} else {
		set = new(replySet)
	}

	// Snapshot: bind the inputs to a private I/O view so this join's
	// page reads move private head positions and counters.
	snap := span.StartChild("snapshot", "view")
	v = s.ws.Snapshot()
	defer v.Close()
	in, err = in.WithView(v)
	snap.End()
	if err != nil {
		s.joinError(w, span, http.StatusInternalServerError, err)
		return
	}
	exec := span.StartChild("exec", "join "+algName)
	opts.Trace = exec
	execBegin := time.Now()
	var results []textjoin.Result
	results, stats, err = dec.RunInto(in, opts, &set.rows)
	// The reply's exec_seconds is the exec span's interval: both clocks
	// stop here, before the view's I/O breakdown is formatted.
	execSeconds := time.Since(execBegin).Seconds()
	exec.End()
	files = v.FileStats()
	recordViewIO(span, files)
	if err != nil {
		s.joinError(w, span, joinStatus(err), err)
		return
	}
	// Everything from here to the last byte handed to the connection:
	// result digest, streamed JSON encode and write.
	reply := span.StartChild("reply", "encode")
	defer reply.End()
	s.tel.Counter("textjoin_http_join_ok_total").Add(1)
	span.SetInt("http.status", http.StatusOK)
	span.SetAttr("join.chosen", stats.Algorithm.String())
	span.SetInt("result.rows", int64(len(results)))
	span.SetAttr("result.hash", textjoin.ResultDigest(results))
	resp := joinResponse{TraceID: traceIDString(span), Integrated: alg == textjoin.Auto, Lambda: lambda}
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
		resp.Prefilter = &stats.Prefilter
	}
	if stats.LSH.Enabled {
		resp.LSH = &stats.LSH
	}
	if err := writeJoinReply(w, &resp, results, show, set.buf[:]); err != nil {
		reply.SetAttr("error", err.Error())
	}
}

// replySet is what an admitted /join works its answer in: the row set its
// join fills and the buffer its reply is encoded in. A request takes one
// from replySets and gives it back on every exit path, so a steady server
// allocates per request little beyond its reply's header and its trace:
// the rows and the buffer are the last request's.
type replySet struct {
	rows textjoin.Rows
	buf  [replyBufBytes]byte
}

// replySets are the idle reply sets, at most one per request that ran at
// once; two collections that find one idle free it.
var replySets = freelist.New[replySet](nil)

// maxIdleRowBytes bounds the rows a reply set may keep between requests.
// A set keeps the arrays of the largest join it served, and no admission
// charge covers it while it is idle, so only a set whose joins all fit
// goes back to replySets: 512 KiB holds about 1 500 outer documents at
// λ = 20.
const maxIdleRowBytes = 512 << 10

// setRowBytes is what a join's rows take in its row set: a Result and λ′
// = min(λ, N1) matches per outer document.
func setRowBytes(in textjoin.Inputs, lambda int) int64 {
	return in.Outer.NumDocs() * (32 + 16*min(int64(lambda), in.Inner.NumDocs()))
}

// traceIDString is the request's trace ID, or "" when tracing is off.
func traceIDString(span *textjoin.RequestSpan) string {
	if span == nil {
		return ""
	}
	return span.TraceID().String()
}

// joinStatus is a failed plan's or join's status: 422 for a join the
// workspace cannot run (memory budget, missing structure), else 500.
func joinStatus(err error) int {
	if errors.Is(err, textjoin.ErrInsufficientMemory) || errors.Is(err, textjoin.ErrMissingInput) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// joinError finishes a failed /join: it stamps the outcome on the root
// span, counts the failure for the availability SLO (503 rejections are
// already counted by the admitter in textjoin_http_rejected_total), and
// answers with the error and the trace ID so the caller can pull the
// full tree from /debug/requests.
func (s *server) joinError(w http.ResponseWriter, span *textjoin.RequestSpan, status int, err error) {
	span.SetInt("http.status", int64(status))
	span.SetAttr("error", err.Error())
	if status != http.StatusServiceUnavailable {
		s.tel.Counter("textjoin_http_join_err_total").Add(1)
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
func recordViewIO(span *textjoin.RequestSpan, files []textjoin.IOFileStat) {
	if span == nil {
		return
	}
	io := span.StartChild("io", "view")
	var seq, rand, writes int64
	var b [64]byte
	for _, fs := range files {
		if fs.Stats.Reads() == 0 && fs.Stats.Writes == 0 {
			continue
		}
		v := strconv.AppendInt(append(b[:0], "seq="...), fs.Stats.SeqReads, 10)
		v = strconv.AppendInt(append(v, " rand="...), fs.Stats.RandReads, 10)
		v = strconv.AppendInt(append(v, " writes="...), fs.Stats.Writes, 10)
		io.SetAttr("io.file."+fs.Name, string(v))
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

func param(q url.Values, name, def string) string {
	if v := q.Get(name); v != "" {
		return v
	}
	return def
}

func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %v", name, err)
	}
	return n, nil
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
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
