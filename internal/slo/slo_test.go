package slo

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"textjoin/internal/metrics"
)

// clock is a settable fake time source shared by the collector and the
// engine, as the wall-clock check demands.
type clock struct{ t time.Time }

func newClock() *clock                   { return &clock{t: time.Unix(1700000000, 0)} }
func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

func availObjective() Objective {
	return Objective{
		Name:   "availability",
		Target: 0.99,
		Good:   []string{"textjoin_http_join_ok_total"},
		Bad:    []string{"textjoin_http_join_err_total", "textjoin_http_rejected_total"},
	}
}

func latencyObjective() Objective {
	return Objective{
		Name:           "latency",
		Target:         0.95,
		Histogram:      `textjoin_http_request_ns{endpoint="join"}`,
		ThresholdNanos: 1 << 20, // ~1ms, a power-of-4 bucket boundary multiple
	}
}

func mustEngine(t *testing.T, col *metrics.Collector, ck *clock, window time.Duration, obj ...Objective) *Engine {
	t.Helper()
	e, err := New(col, ck.now, window, obj)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestObjectiveValidation(t *testing.T) {
	bad := []Objective{
		{},
		{Name: "x", Target: 0},
		{Name: "x", Target: 1},
		{Name: "x", Target: 0.9}, // neither shape
		{Name: "x", Target: 0.9, Histogram: "h", Good: []string{"c"}}, // both shapes
		{Name: "x", Target: 0.9, Histogram: "h"},                      // no threshold
	}
	ck := newClock()
	for i, o := range bad {
		if _, err := New(nil, ck.now, time.Minute, []Objective{o}); err == nil {
			t.Errorf("case %d: invalid objective accepted: %+v", i, o)
		}
	}
}

func TestAvailabilityWindow(t *testing.T) {
	ck := newClock()
	col := metrics.New()
	e := mustEngine(t, col, ck, time.Minute, availObjective())

	// No traffic: perfect compliance, full budget.
	ck.advance(time.Second)
	st := e.Collect()[0]
	if st.Compliance != 1 || st.BudgetRemaining != 1 || st.BurnRate != 0 {
		t.Fatalf("idle status: %+v", st)
	}

	// 98 good, 2 bad: 2%% bad against a 1%% allowance → burn 2, budget -1.
	col.Counter("textjoin_http_join_ok_total").Add(98)
	col.Counter("textjoin_http_join_err_total").Add(1)
	col.Counter("textjoin_http_rejected_total").Add(1)
	ck.advance(time.Second)
	st = e.Collect()[0]
	if st.Good != 98 || st.Bad != 2 {
		t.Fatalf("counts: %+v", st)
	}
	if math.Abs(st.Compliance-0.98) > 1e-9 {
		t.Fatalf("compliance = %v", st.Compliance)
	}
	if math.Abs(st.BurnRate-2.0) > 1e-9 || math.Abs(st.BudgetRemaining-(-1.0)) > 1e-9 {
		t.Fatalf("burn %v, remaining %v", st.BurnRate, st.BudgetRemaining)
	}

	// Once the bad burst slides out of the window and only good traffic
	// remains, the budget recovers.
	for i := 0; i < 10; i++ {
		ck.advance(20 * time.Second)
		col.Counter("textjoin_http_join_ok_total").Add(50)
		st = e.Collect()[0]
	}
	if st.Bad != 0 || st.BudgetRemaining != 1 {
		t.Fatalf("window did not slide: %+v", st)
	}
	if st.WindowSeconds > 61 {
		t.Fatalf("window spans %v s, want <= 60", st.WindowSeconds)
	}
}

func TestLatencyObjective(t *testing.T) {
	ck := newClock()
	col := metrics.New()
	e := mustEngine(t, col, ck, time.Minute, latencyObjective())

	h := col.Histogram("textjoin_http_request_ns", metrics.DefaultLatencyBuckets, "endpoint", "join")
	// 19 fast (well under 1ms), 1 slow (over): 95% compliance exactly.
	for i := 0; i < 19; i++ {
		h.Observe(2000)
	}
	h.Observe(int64(50 * time.Millisecond))
	ck.advance(time.Second)
	st := e.Collect()[0]
	if st.Good != 19 || st.Bad != 1 {
		t.Fatalf("latency counts: %+v", st)
	}
	if math.Abs(st.Compliance-0.95) > 1e-9 {
		t.Fatalf("compliance = %v", st.Compliance)
	}
	if math.Abs(st.BurnRate-1.0) > 1e-9 || math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Fatalf("at exactly the SLO boundary: burn %v, remaining %v", st.BurnRate, st.BudgetRemaining)
	}
}

func TestEngineMeasuresFromCreation(t *testing.T) {
	ck := newClock()
	col := metrics.New()
	// Pre-existing failures before the engine attaches must not count.
	col.Counter("textjoin_http_join_err_total").Add(1000)
	e := mustEngine(t, col, ck, time.Minute, availObjective())
	col.Counter("textjoin_http_join_ok_total").Add(10)
	ck.advance(time.Second)
	st := e.Collect()[0]
	if st.Bad != 0 || st.Good != 10 {
		t.Fatalf("engine counted pre-attach traffic: %+v", st)
	}
}

func TestGaugesRenderAndLint(t *testing.T) {
	ck := newClock()
	col := metrics.New()
	e := mustEngine(t, col, ck, time.Minute, availObjective(), latencyObjective())
	col.Counter("textjoin_http_join_ok_total").Add(5)
	ck.advance(time.Second)

	gauges := e.Gauges()
	if len(gauges) != 10 {
		t.Fatalf("gauges = %d, want 5 per objective", len(gauges))
	}
	seen := map[string]bool{}
	for _, g := range gauges {
		if !strings.HasPrefix(g.Family, "textjoin_slo_") {
			t.Errorf("family %q lacks the slo namespace", g.Family)
		}
		if g.LabelKey != "objective" || g.LabelValue == "" {
			t.Errorf("gauge %q lacks the objective label: %+v", g.Family, g)
		}
		seen[g.Family] = true
	}
	for _, want := range []string{
		"textjoin_slo_target", "textjoin_slo_compliance",
		"textjoin_slo_error_budget_remaining", "textjoin_slo_burn_rate",
		"textjoin_slo_window_seconds",
	} {
		if !seen[want] {
			t.Errorf("missing family %s", want)
		}
	}

	// The full exposition with the SLO gauges injected passes the strict
	// linter — the acceptance criterion for textjoin_slo_*.
	exp := metrics.NewExporter(col, e.Gauges)
	var b strings.Builder
	if err := exp.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if err := metrics.Lint([]byte(body)); err != nil {
		t.Fatalf("exposition with SLO gauges rejected: %v\n%s", err, body)
	}
	if !strings.Contains(body, `textjoin_slo_burn_rate{objective="availability"}`) {
		t.Fatalf("exposition lacks labelled slo gauges:\n%s", body)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.Collect() != nil || e.Gauges() != nil || e.Objectives() != nil {
		t.Fatal("nil engine must be inert")
	}
}

// TestConcurrentCollectsKeepTimeOrder: a Collect whose clock is read
// before a concurrent Collect's must not append its sample after that
// one. The clock stalls the first Collect right after it reads its time
// until the second has finished or a moment has passed; taking the
// sample outside the lock lets the second append first.
func TestConcurrentCollectsKeepTimeOrder(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var calls atomic.Int32
	stalled, second := make(chan struct{}), make(chan struct{})
	now := func() time.Time {
		switch calls.Add(1) {
		case 2: // the first Collect
			close(stalled)
			select {
			case <-second:
			case <-time.After(200 * time.Millisecond):
			}
			return base.Add(time.Second)
		case 3: // the second Collect
			return base.Add(2 * time.Second)
		}
		return base
	}
	e, err := New(metrics.New(), now, time.Minute, []Objective{availObjective()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Collect()
	}()
	<-stalled
	e.Collect()
	close(second)
	wg.Wait()
	for i := 1; i < len(e.samples); i++ {
		if e.samples[i].at.Before(e.samples[i-1].at) {
			t.Fatalf("samples out of time order: %v after %v", e.samples[i].at, e.samples[i-1].at)
		}
	}
}
