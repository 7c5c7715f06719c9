package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// joinPaths is the mixed request set: all three algorithms under every
// weighting, prefilter on and off.
func joinPaths() []string {
	return []string{
		"/join?alg=hhnl&show=2",
		"/join?alg=hvnl&show=2",
		"/join?alg=vvm&show=2",
		"/join?alg=hhnl&weighting=cosine&show=2",
		"/join?alg=hvnl&weighting=tfidf&show=2",
		"/join?alg=vvm&weighting=cosine&show=2",
		"/join?alg=hhnl&prefilter=on&show=2",
		"/join?alg=hvnl&prefilter=on&show=2",
		"/join?alg=auto&show=2",
		"/join?alg=vvm&lambda=7&show=2",
	}
}

// deterministic strips a join response down to the fields that must be
// byte-identical between serial and concurrent execution — everything
// except the wall-clock timings.
func deterministic(j joinReply) joinReply {
	j.WallSeconds, j.QueueSeconds, j.ExecSeconds = 0, 0, 0
	j.TraceID = ""
	return j
}

func getJoin(t *testing.T, hs *httptest.Server, path string) joinReply {
	t.Helper()
	status, body := get(t, hs, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	var j joinReply
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return j
}

// TestSerializeMode: with a budget smaller than any plan's bytes (what
// -budget-mb 0 becomes) every request charges the whole budget, so
// requests still succeed concurrently — they just take turns.
func TestSerializeMode(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 2048
	cfg.BudgetBytes = 1
	cfg.QueueWait = 10 * time.Second
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			getJoin(t, hs, "/join?alg=hvnl&show=0")
		}()
	}
	wg.Wait()
	if n := s.tel.Value("textjoin_http_join_ok_total"); n != 4 {
		t.Fatalf("joins = %d, want 4", n)
	}
}

// TestJoinErrorMapping: a join the workspace cannot run (memory budget
// below the algorithm's minimal working set) maps to 422, not to a
// generic failure, and is answered at plan time, before admission — as
// malformed parameters are.
func TestJoinErrorMapping(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 4096
	cfg.MemoryPages = 1
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	// The plan fails before admission: nothing is charged or queued.
	inflight, queued := s.adm.inflight.Value(), s.adm.queued.Value()
	status, body := get(t, hs, "/join?alg=vvm&show=0")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("insufficient memory: status %d, want 422: %s", status, body)
	}
	var reply struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	for _, sp := range fetchTrace(t, hs, reply.TraceID).Spans {
		if sp.Phase == "queue" {
			t.Errorf("a plan that cannot run was queued: %+v", sp)
		}
	}
	if i, q := s.adm.inflight.Value(), s.adm.queued.Value(); i != inflight || q != queued {
		t.Errorf("inflight %d -> %d, queue depth %d -> %d: want both unchanged", inflight, i, queued, q)
	}

	// Parameter errors reject before admission: the inflight gauge
	// stays untouched.
	before := s.adm.rejected.Value()
	if status, _ := get(t, hs, "/join?alg=bogus"); status != http.StatusBadRequest {
		t.Fatalf("alg=bogus: status %d, want 400", status)
	}
	if after := s.adm.rejected.Value(); after != before {
		t.Errorf("malformed request touched admission (rejected %d -> %d)", before, after)
	}
}

// TestJoinTimingFields: the reply separates queue wait from execution;
// the total wall time covers both.
func TestJoinTimingFields(t *testing.T) {
	_, hs := testServer(t, 4096)
	j := getJoin(t, hs, "/join?alg=hvnl&show=0")
	if j.ExecSeconds <= 0 {
		t.Errorf("exec_seconds = %v, want > 0", j.ExecSeconds)
	}
	if j.WallSeconds < j.ExecSeconds {
		t.Errorf("wall_seconds %v < exec_seconds %v", j.WallSeconds, j.ExecSeconds)
	}
	if j.QueueSeconds != 0 {
		t.Errorf("queue_seconds = %v on an idle server, want 0", j.QueueSeconds)
	}
}

// TestNoRequestWaitsOnAnotherJoin is the lock promise of DESIGN §13 as
// behaviour: no request queues behind another request's join. Every
// simulated page read is slowed, so a join stays in flight for hundreds
// of milliseconds while the test checks two things, each the order of
// two events rather than a latency bound:
//   - /metrics, /healthz and /debug/requests, asked while a join is in
//     flight, all answer before that join's exec span ends;
//   - two admitted joins run at the same time: their exec spans overlap.
//
// A handler that held a server mutex across a join, and a scrape that
// took the same mutex, would fail both.
func TestNoRequestWaitsOnAnotherJoin(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 2048 // each join makes two delayed page reads
	cfg.IODelay = 150 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	type reply struct {
		path string
		body []byte
		at   int64 // wall clock when the reply had been read, in ns
		err  error
	}
	fetch := func(wg *sync.WaitGroup, r *reply) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hs.Client().Get(hs.URL + r.path)
			if err == nil {
				r.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, r.body)
				}
			}
			r.at, r.err = time.Now().UnixNano(), err
		}()
	}

	joins := []reply{{path: "/join?alg=hvnl&show=0"}, {path: "/join?alg=vvm&show=0"}}
	var joinWG sync.WaitGroup
	for i := range joins {
		fetch(&joinWG, &joins[i])
	}
	done := make(chan struct{})
	go func() { joinWG.Wait(); close(done) }()

	// Ask once a join has been admitted: from then on its exec span
	// outlasts two delayed reads.
	for s.adm.inflight.Value() == 0 {
		select {
		case <-done:
			t.Fatalf("both joins ended before either was seen in flight: %v, %v", joins[0].err, joins[1].err)
		case <-time.After(time.Millisecond):
		}
	}
	scrapes := []reply{{path: "/metrics"}, {path: "/healthz"}, {path: "/debug/requests"}}
	var scrapeWG sync.WaitGroup
	for i := range scrapes {
		fetch(&scrapeWG, &scrapes[i])
	}
	scrapeWG.Wait()
	<-done
	for _, r := range append(joins, scrapes...) {
		if r.err != nil {
			t.Fatalf("%s: %v", r.path, r.err)
		}
	}

	// The exec spans on the wall clock, from the flight recorder.
	type interval struct{ start, end int64 }
	execs := make([]interval, len(joins))
	for i, r := range joins {
		var j joinReply
		if err := json.Unmarshal(r.body, &j); err != nil {
			t.Fatalf("%s: %v", r.path, err)
		}
		d := fetchTrace(t, hs, j.TraceID)
		for _, sp := range d.Spans {
			if sp.Phase == "exec" {
				start := d.StartUnixNanos + sp.StartNanos
				execs[i] = interval{start, start + sp.DurNanos}
			}
		}
		if execs[i].end == 0 {
			t.Fatalf("%s: trace %s has no exec span", r.path, j.TraceID)
		}
	}
	firstEnd := min(execs[0].end, execs[1].end)
	for _, r := range scrapes {
		if r.at >= firstEnd {
			t.Errorf("%s answered %v after the first join's exec span ended: it waited on the join",
				r.path, time.Duration(r.at-firstEnd))
		}
	}
	if a, b := execs[0], execs[1]; a.start >= b.end || b.start >= a.end {
		at := func(ns int64) time.Duration { return time.Duration(ns - min(a.start, b.start)) }
		t.Errorf("the two joins ran one after the other: exec spans %s %v..%v, %s %v..%v",
			joins[0].path, at(a.start), at(a.end), joins[1].path, at(b.start), at(b.end))
	}
}
