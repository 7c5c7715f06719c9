package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"textjoin"
	"textjoin/internal/metrics"
)

func testServer(t *testing.T, scale int64) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	cfg.Scale = scale
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func get(t *testing.T, hs *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	s, hs := testServer(t, 4096)

	status, body := get(t, hs, "/healthz")
	if status != 200 {
		t.Fatalf("healthz status %d", status)
	}
	var health struct {
		Status string `json:"status"`
		Joins  int64  `json:"joins"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Joins != 0 {
		t.Errorf("health = %+v", health)
	}

	status, body = get(t, hs, "/join?alg=auto&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("join status %d: %s", status, body)
	}
	var j joinResponse
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if !j.Integrated || j.Lambda != 3 || j.OuterDocs == 0 || len(j.Results) > 2 {
		t.Errorf("join response: %+v", j)
	}
	if s.joins.Load() != 1 {
		t.Errorf("joins counter = %d, want 1", s.joins.Load())
	}

	status, body = get(t, hs, "/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	if err := metrics.Lint(body); err != nil {
		t.Errorf("metrics exposition rejected: %v\n%s", err, body)
	}
	// The phase histograms are derived from the request's finished trace,
	// so the server's own spans appear next to the join's.
	for _, want := range []string{
		"textjoin_plan_chosen_total", "textjoin_iosim_file_seq_reads_total", "textjoin_scrapes_total",
		`textjoin_phase_ns_count{phase="request"} 1`, `textjoin_phase_ns_count{phase="queue"} 1`,
		`textjoin_phase_ns_count{phase="plan"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics lack %s", want)
		}
	}
	if strings.Contains(string(body), "textjoin_trace_") {
		t.Error("metrics still export the trace-ring families")
	}

	// The trace ring and its endpoint are gone; traces live under
	// /debug/requests.
	if status, _ = get(t, hs, "/traces"); status != http.StatusNotFound {
		t.Errorf("/traces status %d, want 404", status)
	}

	for path, want := range map[string]int{
		"/join?alg=bogus":    http.StatusBadRequest,
		"/join?lambda=x":     http.StatusBadRequest,
		"/join?lambda=-1":    http.StatusBadRequest,
		"/join?weighting=no": http.StatusBadRequest,
		"/join?mode=bogus":   http.StatusBadRequest,
		"/join?recall=1.5":   http.StatusBadRequest,
		"/join?recall=-0.2":  http.StatusBadRequest,
		"/join?recall=x":     http.StatusBadRequest,
	} {
		if status, _ := get(t, hs, path); status != want {
			t.Errorf("GET %s: status %d, want %d", path, status, want)
		}
	}
}

// TestServerWorkers pins the workers parameter: out-of-range values are
// refused with 400 before admission (no join runs, no budget is held),
// and a worker count reaches the join — same result hash as the inline run
// for alg=auto's choice, per-worker counters on the collector only after a
// request whose family fans out (alg=vvm).
func TestServerWorkers(t *testing.T) {
	s, hs := testServer(t, 4096)

	for _, tc := range []struct {
		workers string
		want    int
	}{
		{"0", http.StatusBadRequest},
		{"-3", http.StatusBadRequest},
		{"65", http.StatusBadRequest},
		{"100000", http.StatusBadRequest},
		{"x", http.StatusBadRequest},
		{"1", http.StatusOK},
		{"64", http.StatusOK},
	} {
		for _, alg := range []string{"auto", "hhnl", "hvnl", "vvm", "lsh"} {
			path := "/join?show=0&alg=" + alg + "&workers=" + tc.workers
			if status, body := get(t, hs, path); status != tc.want {
				t.Errorf("GET %s: status %d, want %d: %s", path, status, tc.want, body)
			}
		}
	}
	if got := s.joins.Load(); got != 10 {
		t.Errorf("joins run by the table = %d, want the 10 in-range requests", got)
	}

	// run issues one /join and returns the reply with the result hash
	// stamped on its trace's root span.
	run := func(path string) (joinResponse, string) {
		status, body := get(t, hs, path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, status, body)
		}
		var j joinResponse
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		trace := fetchTrace(t, hs, j.TraceID)
		for _, a := range trace.Spans[len(trace.Spans)-1].Attrs {
			if a.Key == "result.hash" {
				return j, a.Value
			}
		}
		t.Fatalf("GET %s: no result.hash on the root span", path)
		return j, ""
	}
	// The sum of the per-worker counters, not how many are non-zero:
	// which of the table's workers=64 goroutines drew work is up to the
	// scheduler, so the fanned-out run below may land on a counter that
	// is already positive.
	workerCounters := func() int64 {
		var n int64
		for _, c := range s.tel.Snapshot().Counters {
			if strings.Contains(c.Name, ".worker.") {
				n += c.Value
			}
		}
		return n
	}
	before := workerCounters()
	inline, inlineHash := run("/join?alg=auto&show=0")
	if n := workerCounters(); n != before {
		t.Errorf("inline alg=auto added %d to the per-worker counters", n-before)
	}
	fanned, fannedHash := run("/join?alg=auto&workers=2&show=0")
	if !fanned.Integrated || fanned.Workers != 2 || fanned.Algorithm != inline.Algorithm {
		t.Errorf("alg=auto&workers=2 replied %+v, inline ran %s", fanned, inline.Algorithm)
	}
	if fannedHash != inlineHash {
		t.Errorf("alg=auto&workers=2 result hash %s, inline %s", fannedHash, inlineHash)
	}
	// The third value: the facade run of the same inputs under the one
	// digest, which is also what a BENCH_BASELINE.json cell records.
	direct, _, _, err := textjoin.JoinIntegrated(
		textjoin.Inputs{Outer: s.c2, Inner: s.c1, InnerInv: s.inv1, OuterInv: s.inv2},
		textjoin.Options{Lambda: s.cfg.Lambda, MemoryPages: s.cfg.MemoryPages})
	if err != nil {
		t.Fatal(err)
	}
	if d := textjoin.ResultDigest(direct); d != inlineHash {
		t.Errorf("trace result.hash %s, ResultDigest of the facade run %s", inlineHash, d)
	}
	// The two block families run inline at any worker count; VVM fans out.
	for _, alg := range []string{"hhnl", "lsh"} {
		run("/join?alg=" + alg + "&workers=2&show=0")
	}
	if n := workerCounters(); n != before {
		t.Errorf("alg=hhnl and alg=lsh at workers=2 added %d to the per-worker counters", n-before)
	}
	run("/join?alg=vvm&workers=2&show=0")
	if workerCounters() == before {
		t.Error("alg=vvm&workers=2 left no per-worker counters: the join ran inline")
	}
}

// TestServerLSH drives the approximate join end to end: mode=lsh (and
// its alg=lsh spelling) must reply with LSH stats, the parallel variant
// must return the same top-λ pairs as the serial one, and recall=r must
// reach the integrated planner without breaking the auto path.
func TestServerLSH(t *testing.T) {
	_, hs := testServer(t, 4096)

	status, body := get(t, hs, "/join?mode=lsh&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("mode=lsh status %d: %s", status, body)
	}
	var serial joinResponse
	if err := json.Unmarshal(body, &serial); err != nil {
		t.Fatal(err)
	}
	if serial.Algorithm != "LSH" || serial.Integrated {
		t.Errorf("mode=lsh ran %q (integrated=%v), want LSH", serial.Algorithm, serial.Integrated)
	}
	if serial.LSH == nil || serial.LSH.BucketProbes == 0 {
		t.Errorf("mode=lsh reply lacks LSH stats: %+v", serial.LSH)
	}

	status, body = get(t, hs, "/join?alg=lsh&lambda=3&show=2&workers=2")
	if status != 200 {
		t.Fatalf("alg=lsh workers=2 status %d: %s", status, body)
	}
	var parallel joinResponse
	if err := json.Unmarshal(body, &parallel); err != nil {
		t.Fatal(err)
	}
	if parallel.Algorithm != "LSH" {
		t.Errorf("alg=lsh ran %q, want LSH", parallel.Algorithm)
	}
	if len(parallel.Results) != len(serial.Results) {
		t.Fatalf("parallel returned %d result rows, serial %d", len(parallel.Results), len(serial.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], parallel.Results[i]
		if a.Outer != b.Outer || len(a.Matches) != len(b.Matches) {
			t.Fatalf("row %d: serial %+v, parallel %+v", i, a, b)
		}
		for j := range a.Matches {
			if a.Matches[j] != b.Matches[j] {
				t.Errorf("row %d match %d: serial %+v, parallel %+v", i, j, a.Matches[j], b.Matches[j])
			}
		}
	}

	status, body = get(t, hs, "/join?alg=auto&recall=0.9&show=0")
	if status != 200 {
		t.Fatalf("auto recall=0.9 status %d: %s", status, body)
	}
	var auto joinResponse
	if err := json.Unmarshal(body, &auto); err != nil {
		t.Fatal(err)
	}
	if !auto.Integrated || auto.Algorithm == "" {
		t.Errorf("auto recall response: %+v", auto)
	}
}

// TestConcurrentScrapes is the acceptance check for the live scrape
// path: /metrics and /debug/requests are hammered while parallel HVNL
// and VVM joins are in flight. Every exposition must parse and every
// recorder listing must decode; run under -race this also proves the
// scrape path shares no unsynchronized state with the join hot path.
func TestConcurrentScrapes(t *testing.T) {
	_, hs := testServer(t, 2048)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	joins := []string{
		"/join?alg=hvnl&workers=4&show=0",
		"/join?alg=vvm&workers=4&show=0",
		"/join?alg=hvnl&workers=2&show=0",
		"/join?alg=auto&show=0",
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, path := range joins {
			resp, err := hs.Client().Get(hs.URL + path)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- &joinStatusError{path, resp.StatusCode}
				return
			}
		}
	}()

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := hs.Client().Get(hs.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if err := metrics.Lint(body); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := hs.Client().Get(hs.URL + "/debug/requests?format=json")
			if err != nil {
				errs <- err
				return
			}
			var list struct{ Recent []json.RawMessage }
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type joinStatusError struct {
	path   string
	status int
}

func (e *joinStatusError) Error() string {
	return "GET " + e.path + ": unexpected status " + http.StatusText(e.status)
}

func TestSmoke(t *testing.T) {
	var sb strings.Builder
	if err := runSmoke(defaultConfig(), &sb); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "shutdown clean") {
		t.Errorf("smoke output lacks clean shutdown:\n%s", sb.String())
	}
}
