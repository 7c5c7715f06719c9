package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// joinPaths is the mixed request set: all three algorithms under every
// weighting, prefilter on and off — more than eight requests in flight at
// once.
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

// TestConcurrentJoinsMatchSerial is the serving-layer acceptance check:
// the mixed request set run all at once returns, request for request,
// exactly the response a serial run produced — same results, same
// per-request I/O stats, same costs. Under -race this also proves the
// unlocked join path is data-race free end to end.
func TestConcurrentJoinsMatchSerial(t *testing.T) {
	_, hs := testServer(t, 2048)
	paths := joinPaths()

	want := make([]joinReply, len(paths))
	for i, p := range paths {
		want[i] = deterministic(getJoin(t, hs, p))
	}

	got := make([]joinReply, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = deterministic(getJoin(t, hs, p))
		}()
	}
	wg.Wait()

	for i, p := range paths {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: concurrent response diverges from serial:\nserial:     %+v\nconcurrent: %+v",
				p, want[i], got[i])
		}
	}
}

// TestSerializeMode: with a budget smaller than any footprint (what
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
	if n := s.joins.Load(); n != 4 {
		t.Fatalf("joins = %d, want 4", n)
	}
}

// TestQueueFullRejects: with the budget held and no queue capacity, a
// join is turned away with 503 and a Retry-After hint instead of
// parking unboundedly.
func TestQueueFullRejects(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 4096
	cfg.QueueLen = 0
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	// Occupy the entire budget, as a long-running join would.
	if _, err := s.adm.admit(cfg.BudgetBytes); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Get(hs.URL + "/join?alg=hhnl&show=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 reply carries no Retry-After header")
	}
	s.adm.release(cfg.BudgetBytes)

	// With the budget free again the same request succeeds.
	getJoin(t, hs, "/join?alg=hhnl&show=0")
}

// TestQueueWaitDeadline: a request that queues but never fits is
// rejected with 503 once the configured deadline passes.
func TestQueueWaitDeadline(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 4096
	cfg.QueueLen = 4
	cfg.QueueWait = 30 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	if _, err := s.adm.admit(cfg.BudgetBytes); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release(cfg.BudgetBytes)
	resp, err := hs.Client().Get(hs.URL + "/join?alg=hhnl&show=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

// TestJoinErrorMapping: a join the workspace cannot run (memory budget
// below the algorithm's minimal working set) maps to 422, not to a
// generic failure — and malformed parameters never reach admission.
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

	status, body := get(t, hs, "/join?alg=vvm&show=0")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("insufficient memory: status %d, want 422: %s", status, body)
	}

	// Parameter errors reject before admission: the inflight gauge
	// stays untouched.
	before := s.tel.Counter("http.rejected").Value()
	if status, _ := get(t, hs, "/join?alg=bogus"); status != http.StatusBadRequest {
		t.Fatalf("alg=bogus: status %d, want 400", status)
	}
	if after := s.tel.Counter("http.rejected").Value(); after != before {
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
