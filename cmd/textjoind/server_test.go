package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	var j joinReply
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

// TestServerWorkers pins that the workers parameter, which the
// benchmark's serve_mix still sends, is ignored like any other unknown
// one: the request answers 200 with the results of the same request
// without it, and they are the facade's results under the one digest.
func TestServerWorkers(t *testing.T) {
	s, hs := testServer(t, 4096)

	// run issues one /join and returns the reply with the result hash
	// stamped on its trace's root span.
	run := func(path string) (joinReply, string) {
		status, body := get(t, hs, path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, status, body)
		}
		var j joinReply
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
	plain, plainHash := run("/join?alg=vvm&weighting=cosine&show=3")
	asked, askedHash := run("/join?alg=vvm&weighting=cosine&workers=2&show=3")
	if askedHash != plainHash || !reflect.DeepEqual(deterministic(asked), deterministic(plain)) {
		t.Errorf("workers=2 replied %+v (hash %s), without it %+v (hash %s)", asked, askedHash, plain, plainHash)
	}
	// The third value: the facade run of the same inputs under the one
	// digest, which is also what a BENCH_BASELINE.json cell records.
	direct, _, err := textjoin.Join(textjoin.VVM,
		textjoin.Inputs{Outer: s.c2, Inner: s.c1, InnerInv: s.inv1, OuterInv: s.inv2},
		textjoin.Options{Lambda: s.cfg.Lambda, MemoryPages: s.cfg.MemoryPages, Weighting: textjoin.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	if d := textjoin.ResultDigest(direct); d != plainHash {
		t.Errorf("trace result.hash %s, ResultDigest of the facade run %s", plainHash, d)
	}
}

// TestServerLSH drives the approximate join end to end: mode=lsh must
// reply with LSH stats, its alg=lsh spelling must return the same top-λ
// pairs, and recall=r must reach the integrated planner without breaking
// the auto path.
func TestServerLSH(t *testing.T) {
	_, hs := testServer(t, 4096)

	status, body := get(t, hs, "/join?mode=lsh&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("mode=lsh status %d: %s", status, body)
	}
	var mode joinReply
	if err := json.Unmarshal(body, &mode); err != nil {
		t.Fatal(err)
	}
	if mode.Algorithm != "LSH" || mode.Integrated {
		t.Errorf("mode=lsh ran %q (integrated=%v), want LSH", mode.Algorithm, mode.Integrated)
	}
	if mode.LSH == nil || mode.LSH.BucketProbes == 0 {
		t.Errorf("mode=lsh reply lacks LSH stats: %+v", mode.LSH)
	}

	status, body = get(t, hs, "/join?alg=lsh&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("alg=lsh status %d: %s", status, body)
	}
	var alg joinReply
	if err := json.Unmarshal(body, &alg); err != nil {
		t.Fatal(err)
	}
	if alg.Algorithm != "LSH" {
		t.Errorf("alg=lsh ran %q, want LSH", alg.Algorithm)
	}
	if len(alg.Results) != len(mode.Results) {
		t.Fatalf("alg=lsh returned %d result rows, mode=lsh %d", len(alg.Results), len(mode.Results))
	}
	for i := range mode.Results {
		a, b := mode.Results[i], alg.Results[i]
		if a.Outer != b.Outer || len(a.Matches) != len(b.Matches) {
			t.Fatalf("row %d: mode=lsh %+v, alg=lsh %+v", i, a, b)
		}
		for j := range a.Matches {
			if a.Matches[j] != b.Matches[j] {
				t.Errorf("row %d match %d: mode=lsh %+v, alg=lsh %+v", i, j, a.Matches[j], b.Matches[j])
			}
		}
	}

	status, body = get(t, hs, "/join?alg=auto&recall=0.9&show=0")
	if status != 200 {
		t.Fatalf("auto recall=0.9 status %d: %s", status, body)
	}
	var auto joinReply
	if err := json.Unmarshal(body, &auto); err != nil {
		t.Fatal(err)
	}
	if !auto.Integrated || auto.Algorithm == "" {
		t.Errorf("auto recall response: %+v", auto)
	}
}

// TestConcurrentScrapes is the acceptance check for the live scrape
// path: /metrics and /debug/requests are hammered while HVNL and VVM
// joins are in flight. Every exposition must parse and every
// recorder listing must decode; run under -race this also proves the
// scrape path shares no unsynchronized state with the join hot path.
func TestConcurrentScrapes(t *testing.T) {
	_, hs := testServer(t, 2048)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	joins := []string{
		"/join?alg=hvnl&show=0",
		"/join?alg=vvm&show=0",
		"/join?alg=hvnl&prefilter=on&show=0",
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
