package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
)

// tracedServer is testServer with enough recorder capacity to retain
// every trace a test produces, and an admission envelope tight enough
// that a burst queues and overflows — the load shape the flight
// recorder must survive.
func tracedServer(t *testing.T, pressure bool) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	cfg.Scale = 2048
	cfg.RecorderCap = 256
	if pressure {
		cfg.BudgetBytes = 1 << 20
		cfg.QueueLen = 4
		cfg.QueueWait = 200 * time.Millisecond
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// fetchTrace pulls one trace from the flight recorder and validates it
// against the reqtrace schema.
func fetchTrace(t *testing.T, hs *httptest.Server, traceID string) reqtrace.TraceData {
	t.Helper()
	status, body := get(t, hs, "/debug/requests/"+traceID+"?format=json")
	if status != http.StatusOK {
		t.Fatalf("trace %s: status %d: %s", traceID, status, body)
	}
	if err := reqtrace.Validate(body); err != nil {
		t.Fatalf("trace %s rejected: %v\n%s", traceID, err, body)
	}
	var d reqtrace.TraceData
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryJoinOutcomeYieldsTrace: accepted, malformed and rejected
// requests each leave exactly one well-formed trace behind, announced
// in the Traceparent response header and (where there is a JSON body
// field for it) in the body.
func TestEveryJoinOutcomeYieldsTrace(t *testing.T) {
	_, hs := tracedServer(t, false)

	cases := []struct {
		path       string
		wantStatus int
		wantPhases []string
	}{
		{"/join?alg=hvnl&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}},
		{"/join?mode=lsh&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}},
		{"/join?alg=hvnl&weighting=tfidf&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}},
		{"/join?alg=hhnl&prefilter=on&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}},
		{"/join?alg=auto&show=0", http.StatusOK, []string{"request", "queue", "exec", "io", "plan"}},
		{"/join?alg=bogus", http.StatusBadRequest, []string{"request"}},
		{"/join?lambda=-1", http.StatusBadRequest, []string{"request"}},
	}
	for _, tc := range cases {
		resp, err := hs.Client().Get(hs.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		tp := resp.Header.Get(reqtrace.TraceparentHeader)
		traceID, _, err := reqtrace.ParseTraceparent(tp)
		if err != nil {
			t.Fatalf("%s: bad Traceparent %q: %v", tc.path, tp, err)
		}
		d := fetchTrace(t, hs, traceID.String())
		phases := map[string]bool{}
		for _, sp := range d.Spans {
			phases[sp.Phase] = true
		}
		for _, want := range tc.wantPhases {
			if !phases[want] {
				t.Errorf("%s: trace lacks a %s span: %+v", tc.path, want, d.Spans)
			}
		}
	}
}

// TestTraceparentPropagation: an incoming Traceparent header links the
// server's trace into the caller's — the response echoes the caller's
// trace ID and the stored trace records the remote parent span.
func TestTraceparentPropagation(t *testing.T) {
	_, hs := tracedServer(t, false)

	const remote = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00f067aa0ba902b7"
	req, err := http.NewRequest("GET", hs.URL+"/join?alg=hvnl&show=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(reqtrace.TraceparentHeader, "00-"+remote+"-"+parent+"-01")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID, _, err := reqtrace.ParseTraceparent(resp.Header.Get(reqtrace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	if traceID.String() != remote {
		t.Fatalf("server did not adopt the caller's trace ID: got %s, want %s", traceID, remote)
	}
	var j joinReply
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.TraceID != remote {
		t.Fatalf("join reply trace_id = %q, want %q", j.TraceID, remote)
	}
	d := fetchTrace(t, hs, remote)
	if d.RemoteParent != parent {
		t.Fatalf("stored trace remote_parent = %q, want %q", d.RemoteParent, parent)
	}
}

// TestFlightRecorderUnderLoad is the -race acceptance test: a mixed
// join burst (serial, parallel, LSH, prefiltered) under a tight
// admission budget, with scrapers hammering /debug/requests and
// /metrics the whole time. Every response's trace must come back as a
// well-formed tree, every scrape must serve valid JSON and a
// Lint-clean exposition, and the server must not leak goroutines.
func TestFlightRecorderUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	_, hs := tracedServer(t, true)

	paths := append(joinPaths(),
		"/join?mode=lsh&show=0",
		"/join?alg=lsh&lambda=3&show=0",
		"/join?alg=auto&recall=0.9&show=0",
	)

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrape := func(f func()) {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	var mu sync.Mutex
	var scrapeErrs []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(scrapeErrs) < 10 {
			scrapeErrs = append(scrapeErrs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	scrape(func() {
		status, body := get(t, hs, "/debug/requests?format=json")
		if status != http.StatusOK {
			fail("debug/requests: status %d", status)
			return
		}
		var list struct {
			Slowest []struct {
				TraceID string `json:"trace_id"`
			} `json:"slowest"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			fail("debug/requests: %v", err)
			return
		}
		// Re-fetch whatever the listing names: a trace visible in the
		// listing must be individually retrievable and schema-valid
		// even while new requests churn the ring.
		for _, row := range list.Slowest {
			status, body := get(t, hs, "/debug/requests/"+row.TraceID+"?format=json")
			if status != http.StatusOK {
				continue // evicted between listing and fetch
			}
			if err := reqtrace.Validate(body); err != nil {
				fail("trace %s torn: %v", row.TraceID, err)
			}
		}
	})
	scrape(func() {
		status, body := get(t, hs, "/metrics")
		if status != http.StatusOK {
			fail("metrics: status %d", status)
			return
		}
		if err := metrics.Lint(body); err != nil {
			fail("metrics: %v", err)
		}
	})

	// The join burst. 503 rejections are expected under this budget —
	// they must still carry a Traceparent pointing at a stored trace.
	var joinWG sync.WaitGroup
	var ids sync.Map
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			joinWG.Add(1)
			go func(p string) {
				defer joinWG.Done()
				resp, err := hs.Client().Get(hs.URL + p)
				if err != nil {
					fail("%s: %v", p, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					fail("%s: status %d", p, resp.StatusCode)
					return
				}
				traceID, _, err := reqtrace.ParseTraceparent(resp.Header.Get(reqtrace.TraceparentHeader))
				if err != nil {
					fail("%s: bad Traceparent: %v", p, err)
					return
				}
				ids.Store(traceID.String(), resp.StatusCode)
			}(p)
		}
		joinWG.Wait()
	}
	close(stop)
	scrapeWG.Wait()
	if len(scrapeErrs) > 0 {
		t.Fatalf("under load:\n%s", strings.Join(scrapeErrs, "\n"))
	}

	// Every response's trace is retrievable as a complete tree: roots
	// ended, queue span present, rejected requests marked.
	n := 0
	ids.Range(func(k, v any) bool {
		n++
		d := fetchTrace(t, hs, k.(string))
		phases := map[string]bool{}
		for _, sp := range d.Spans {
			phases[sp.Phase] = true
		}
		if !phases["request"] || !phases["queue"] {
			t.Errorf("trace %s incomplete: %+v", k, d.Spans)
		}
		if v.(int) == http.StatusOK && !phases["exec"] {
			t.Errorf("accepted trace %s lacks an exec span", k)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no traces collected")
	}
	t.Logf("collected %d traces under admission pressure", n)

	// Goroutine-leak check: after the burst drains and idle connections
	// close, the count settles back to (about) where it started.
	hs.Client().CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serveMixKinds are the six request kinds of the benchmark's serve_mix
// workload (benchmark/serve.go), rows included as it asks for them. The
// workers=2 it adds to hhnl_w2 and vvm_w2 is ignored (TestServerWorkers).
var serveMixKinds = []struct{ name, query string }{
	{"auto", "alg=auto"},
	{"hhnl_w2", "alg=hhnl"},
	{"hvnl", "alg=hvnl&weighting=tfidf"},
	{"vvm_w2", "alg=vvm&weighting=cosine"},
	{"lsh", "mode=lsh"},
	{"hhnl_prefilter", "alg=hhnl&prefilter=on"},
}

// joinAndTrace runs one /join and returns its reply with its trace.
func joinAndTrace(t *testing.T, hs *httptest.Server, query string) (joinReply, reqtrace.TraceData) {
	t.Helper()
	status, body := get(t, hs, "/join?"+query+"&lambda=5&show=100000")
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, status, body)
	}
	var j joinReply
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j, fetchTrace(t, hs, j.TraceID)
}

// spanOf returns the trace's one span of the phase and the summed
// duration of that span's children.
func spanOf(t *testing.T, d reqtrace.TraceData, phase string) (reqtrace.SpanData, int64) {
	t.Helper()
	var found *reqtrace.SpanData
	for i := range d.Spans {
		if d.Spans[i].Phase == phase {
			if found != nil {
				t.Fatalf("trace %s has two %s spans", d.TraceID, phase)
			}
			found = &d.Spans[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s lacks a %s span", d.TraceID, phase)
	}
	var children int64
	for _, sp := range d.Spans {
		if sp.Parent == found.ID {
			children += sp.DurNanos
		}
	}
	return *found, children
}

// TestTraceClosure checks that a request's spans account for its time:
// over the serve_mix kinds the root's children (queue, snapshot, exec,
// io, reply) cover at least 90 % of the root, the reply's exec_seconds
// is the exec span's own interval, and the join phases under exec cover
// at least 80 % of it for every kind (logged per kind: anything under
// 95 % is a place no span looks yet).
//
// The property is structural — is there a stretch of the request no span
// looks at — and a request here takes about a millisecond, so one
// scheduler hiccup between two spans would swamp a sum over requests.
// Each kind is therefore judged by the best-covered of five requests: a
// hiccup spoils one request, a missing span spoils all five.
func TestTraceClosure(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 512
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	for _, k := range serveMixKinds {
		var bestRoot, bestExec float64
		var bestExecDur time.Duration
		for i := 0; i < 5; i++ {
			j, d := joinAndTrace(t, hs, k.query)
			root, covered := spanOf(t, d, "request")
			bestRoot = max(bestRoot, float64(covered)/float64(root.DurNanos))
			exec, covered := spanOf(t, d, "exec")
			if ratio := float64(covered) / float64(exec.DurNanos); ratio > bestExec {
				bestExec, bestExecDur = ratio, time.Duration(exec.DurNanos)
			}
			if diff := time.Duration(j.ExecSeconds*1e9) - time.Duration(exec.DurNanos); diff < -time.Millisecond || diff > time.Millisecond {
				t.Errorf("%s: exec_seconds %v but the exec span took %v", k.name, j.ExecSeconds, time.Duration(exec.DurNanos))
			}
		}
		t.Logf("%-15s phases cover %.3f of exec (%v), children %.3f of the root", k.name, bestExec, bestExecDur, bestRoot)
		if bestExec < 0.80 {
			t.Errorf("%s: join phases cover only %.3f of exec", k.name, bestExec)
		}
		if bestRoot < 0.90 {
			t.Errorf("%s: root children cover only %.3f of the request time", k.name, bestRoot)
		}
	}
}

// TestExecSpanCarriesStats: the exec span's attributes are the reply's
// own counts, so /debug/requests/{id} alone answers what a request cost.
func TestExecSpanCarriesStats(t *testing.T) {
	_, hs := tracedServer(t, false)
	for _, k := range serveMixKinds {
		j, d := joinAndTrace(t, hs, k.query)
		exec, _ := spanOf(t, d, "exec")
		attrs := map[string]string{}
		for _, a := range exec.Attrs {
			attrs[a.Key] = a.Value
		}
		p := "join." + strings.ToLower(j.Algorithm)
		want := map[string]int64{
			p + ".io.seq":  j.SeqReads,
			p + ".io.rand": j.RandReads,
			p + ".passes":  int64(j.Passes),
		}
		if j.Prefilter != nil {
			want[p+".prefilter.pages_skipped"] = j.Prefilter.PagesSkipped
			want[p+".prefilter.false_passes"] = j.Prefilter.FalsePasses
		}
		if j.LSH != nil {
			want[p+".candidates"] = j.LSH.Candidates
			want[p+".pages_skipped"] = j.LSH.PagesSkipped
		}
		if (k.name == "hhnl_prefilter") != (j.Prefilter != nil) || (k.name == "lsh") != (j.LSH != nil) {
			t.Errorf("%s: reply prefilter=%v lsh=%v", k.name, j.Prefilter != nil, j.LSH != nil)
		}
		for key, v := range want {
			if attrs[key] != fmt.Sprint(v) {
				t.Errorf("%s: exec attr %s = %q, reply says %d", k.name, key, attrs[key], v)
			}
		}
		if _, ok := attrs[p+".cache.misses"]; ok != (j.Algorithm == "HVNL") {
			t.Errorf("%s: cache attrs present = %v", k.name, ok)
		}
	}
}
