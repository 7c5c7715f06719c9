package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
)

// tracedServer is testServer with enough recorder capacity to retain
// every trace a test produces.
func tracedServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	cfg.Scale = 2048
	cfg.RecorderCap = 256
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

// TestEveryJoinOutcomeYieldsTrace: accepted, malformed, unrunnable,
// failed and rejected requests each leave exactly one well-formed trace
// behind, every span in it ended, announced in the Traceparent response
// header and (where there is a JSON body field for it) in the body. A
// failed request's body is the error alone, with no partial result.
func TestEveryJoinOutcomeYieldsTrace(t *testing.T) {
	s, hs := tracedServer(t)
	s.adm.maxQueue = 0 // a held budget turns a request away at once

	cases := []struct {
		path       string
		wantStatus int
		wantPhases []string
		// arm, when set, sets the server up for the outcome and returns
		// what undoes it.
		arm func() (disarm func())
	}{
		{"/join?alg=hvnl&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}, nil},
		{"/join?mode=lsh&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}, nil},
		{"/join?alg=hvnl&weighting=tfidf&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}, nil},
		{"/join?alg=hhnl&prefilter=on&show=0", http.StatusOK, []string{"request", "queue", "exec", "io"}, nil},
		{"/join?alg=auto&show=0", http.StatusOK, []string{"request", "queue", "exec", "io", "plan"}, nil},
		{"/join?alg=bogus", http.StatusBadRequest, []string{"request"}, nil},
		{"/join?lambda=-1", http.StatusBadRequest, []string{"request"}, nil},
		{"/join?alg=vvm&show=0", http.StatusUnprocessableEntity, []string{"request"}, func() func() {
			mem := s.cfg.MemoryPages
			s.cfg.MemoryPages = 1
			return func() { s.cfg.MemoryPages = mem }
		}},
		{"/join?alg=hhnl&show=0", http.StatusServiceUnavailable, []string{"request", "queue"}, func() func() {
			if _, err := s.adm.admit(s.adm.budget); err != nil {
				t.Fatal(err)
			}
			return func() { s.adm.release(s.adm.budget) }
		}},
		{"/join?alg=hhnl&show=0", http.StatusInternalServerError, []string{"request", "queue", "snapshot", "exec", "io"}, func() func() {
			s.ws.Disk().InjectFaults(iosim.FaultPlan{Repeat: true})
			return func() { s.ws.Disk().InjectFaults(iosim.FaultPlan{}) }
		}},
	}
	for _, tc := range cases {
		disarm := func() {}
		if tc.arm != nil {
			disarm = tc.arm()
		}
		resp, err := hs.Client().Get(hs.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		disarm()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantStatus != http.StatusOK {
			var reply map[string]any
			if err := json.Unmarshal(body, &reply); err != nil || reply["error"] == nil || reply["results"] != nil {
				t.Errorf("%s: a failed request answered %s", tc.path, body)
			}
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
	_, hs := tracedServer(t)

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
	_, hs := tracedServer(t)
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
