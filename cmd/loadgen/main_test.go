package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"textjoin/internal/metrics"
	"textjoin/internal/slo"
)

// TestClassify pins the outcome buckets: 503 is load shedding, 422 is a
// join the workspace cannot run — the two must never be conflated with
// each other or with genuine errors.
func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		want   outcome
	}{
		{"ok", nil, http.StatusOK, outcomeOK},
		{"rejected", nil, http.StatusServiceUnavailable, outcomeRejected},
		{"unprocessable", nil, http.StatusUnprocessableEntity, outcomeUnprocessable},
		{"bad request", nil, http.StatusBadRequest, outcomeError},
		{"server error", nil, http.StatusInternalServerError, outcomeError},
		{"not found", nil, http.StatusNotFound, outcomeError},
		{"transport error", errors.New("connection refused"), 0, outcomeError},
		// A transport error wins even when a status leaked through.
		{"error with status", errors.New("timeout"), http.StatusOK, outcomeError},
	}
	for _, c := range cases {
		if got := classify(c.err, c.status); got != c.want {
			t.Errorf("%s: classify(%v, %d) = %v, want %v", c.name, c.err, c.status, got, c.want)
		}
	}
}

// TestSanityUnprocessable ensures the CI gate fails a run with 422s even
// when no request landed in the error bucket.
func TestSanityUnprocessable(t *testing.T) {
	runs := []runStat{{
		Label: "t", Requests: 10, OK: 9, Unprocessable: 1,
		P50Ms: 1, P99Ms: 2, MaxMs: 3,
	}}
	err := sanity(runs)
	if err == nil || !strings.Contains(err.Error(), "unprocessable") {
		t.Fatalf("sanity = %v, want unprocessable failure", err)
	}
}

// TestSanityServerTime pins the client-vs-server clock gates: a reply
// claiming more server time than the client measured, or a server p50
// above the client p50, fails -check.
func TestSanityServerTime(t *testing.T) {
	base := runStat{
		Label: "t", Requests: 10, OK: 10,
		P50Ms: 5, P99Ms: 6, MaxMs: 7, ServerP50Ms: 4,
	}
	if err := sanity([]runStat{base}); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	overrun := base
	overrun.ServerOverruns = 2
	if err := sanity([]runStat{overrun}); err == nil || !strings.Contains(err.Error(), "server time") {
		t.Fatalf("sanity = %v, want server-time overrun failure", err)
	}
	inverted := base
	inverted.ServerP50Ms = 50
	if err := sanity([]runStat{inverted}); err == nil || !strings.Contains(err.Error(), "server p50") {
		t.Fatalf("sanity = %v, want server-p50 failure", err)
	}
}

// TestSanitySLO: a blown error budget fails -check even when every
// request succeeded.
func TestSanitySLO(t *testing.T) {
	run := runStat{
		Label: "t", Requests: 10, OK: 10,
		P50Ms: 5, P99Ms: 6, MaxMs: 7,
		SLO: []sloStat{
			{Objective: "availability", BudgetRemaining: 1},
			{Objective: "latency", BudgetRemaining: -0.5, BurnRate: 1.5},
		},
	}
	err := sanity([]runStat{run})
	if err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("sanity = %v, want latency SLO failure", err)
	}
}

// TestScrapeSLO drives the scraper against a real exporter+engine pair:
// the same wiring textjoind serves, so the parser is pinned to the
// exposition the SLO layer actually emits.
func TestScrapeSLO(t *testing.T) {
	col := metrics.New()
	eng, err := slo.New(col, time.Now, time.Minute, []slo.Objective{
		{Name: "availability", Target: 0.99, Good: []string{"textjoin_http_join_ok_total"}, Bad: []string{"textjoin_http_join_err_total"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Counter("textjoin_http_join_ok_total").Add(99)
	col.Counter("textjoin_http_join_err_total").Add(1)
	exp := metrics.NewExporter(col, eng.Gauges)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		exp.ServeHTTP(w, r)
	}))
	defer hs.Close()

	got, err := scrapeSLO(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Objective != "availability" {
		t.Fatalf("scraped %+v", got)
	}
	s := got[0]
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(s.Target, 0.99) || !near(s.Compliance, 0.99) || !near(s.BurnRate, 1) || !near(s.BudgetRemaining, 0) {
		t.Fatalf("objective state %+v", s)
	}

	// A server without the SLO layer is an explicit error, not an empty
	// success.
	bare := metrics.NewExporter(col, nil)
	hs2 := httptest.NewServer(bare)
	defer hs2.Close()
	if _, err := scrapeSLO(hs2.URL); err == nil {
		t.Fatal("scrapeSLO accepted an exposition without slo families")
	}
}
