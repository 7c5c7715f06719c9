package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	c := New()
	h := c.Histogram("b", []int64{10, 100, 1000})
	// Bounds are inclusive upper bounds: v lands in the first bucket with
	// v <= le. Exercise every edge, both sides.
	for _, v := range []int64{-5, 0, 10} {
		h.Observe(v) // bucket 0 (le 10)
	}
	for _, v := range []int64{11, 100} {
		h.Observe(v) // bucket 1 (le 100)
	}
	for _, v := range []int64{101, 1000} {
		h.Observe(v) // bucket 2 (le 1000)
	}
	for _, v := range []int64{1001, math.MaxInt64} {
		h.Observe(v) // overflow bucket (le +Inf)
	}
	// Cumulative counts: the observations in buckets whose bound is at
	// most le, for each bound and for values between bounds.
	for _, tc := range []struct{ le, want int64 }{
		{9, 0}, {10, 3}, {99, 3}, {100, 5}, {1000, 7}, {math.MaxInt64, 7},
	} {
		if got, all := c.AtMost("b", tc.le); got != tc.want || all != 9 {
			t.Errorf("AtMost(le %d) = %d of %d, want %d of 9", tc.le, got, all, tc.want)
		}
	}
	if n := c.Value("b"); n != 9 {
		t.Errorf("Value = %d, want 9", n)
	}
	if h.Count() != 9 {
		t.Errorf("Count() = %d, want 9", h.Count())
	}
	out := scrape(t, NewExporter(c, nil))
	for _, want := range []string{`b_bucket{le="10"} 3`, `b_bucket{le="100"} 5`, `b_bucket{le="1000"} 7`, `b_bucket{le="+Inf"} 9`, "b_count 9"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundsSortedAndReused(t *testing.T) {
	c := New()
	h1 := c.Histogram("h", []int64{100, 1, 10}) // unsorted input is sorted
	h1.Observe(5)
	out := scrape(t, NewExporter(c, nil))
	if !strings.Contains(out, "h_bucket{le=\"1\"} 0\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"100\"} 1\n") {
		t.Errorf("bounds not sorted, or 5 landed in the wrong bucket:\n%s", out)
	}
	// A second resolve with different bounds returns the existing histogram.
	h2 := c.Histogram("h", []int64{7})
	if h1 != h2 {
		t.Error("re-resolving a histogram by name created a new one")
	}
	// So does the same family under the same labels; other labels are
	// another series.
	if c.Histogram("h", nil, "k", "v") != c.Histogram("h", nil, "k", "v") || c.Histogram("h", nil, "k", "w") == c.Histogram("h", nil, "k", "v") {
		t.Error("labelled histograms do not resolve by label set")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets(1,2,5) = %v, want %v", got, want)
		}
	}
	for _, bad := range [][3]int64{{0, 2, 3}, {1, 1, 3}, {1, 2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpBuckets(%v) did not panic", bad)
				}
			}()
			ExpBuckets(bad[0], bad[1], int(bad[2]))
		}()
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := New()
	const goroutines, adds = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve inside the goroutine so the map path races too.
			ct := c.Counter("shared_total", "k", "v")
			h := c.Histogram("shared_h", ExpBuckets(1, 2, 16))
			for i := 0; i < adds; i++ {
				ct.Add(1)
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if v := c.Value(`shared_total{k="v"}`); v != goroutines*adds {
		t.Errorf("counter = %d, want %d", v, goroutines*adds)
	}
	if n := c.Histogram("shared_h", nil).Count(); n != goroutines*adds {
		t.Errorf("histogram count = %d, want %d", n, goroutines*adds)
	}
}

func TestNilCollectorIsDisabled(t *testing.T) {
	var c *Collector
	// None of these may panic.
	c.Counter("x").Add(3)
	if v := c.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	c.Gauge("g").Add(-1)
	c.Histogram("h", ExpBuckets(1, 2, 16)).Observe(5)
	if n := c.Histogram("h", nil).Count(); n != 0 {
		t.Errorf("nil histogram count = %d", n)
	}
	if v := c.Value("x"); v != 0 {
		t.Errorf("nil collector reads %d", v)
	}
	if n, all := c.AtMost("h", 10); n != 0 || all != 0 {
		t.Errorf("nil collector histogram reads %d of %d", n, all)
	}
}

// The disabled path must not allocate: instrumented code holds nil
// collectors in the common case and every primitive must stay a branch.
func TestDisabledPathDoesNotAllocate(t *testing.T) {
	var c *Collector
	ct := c.Counter("x")
	h := c.Histogram("h", ExpBuckets(1, 2, 16))
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-add", func() { ct.Add(1) }},
		{"histogram-observe", func() { h.Observe(7) }},
		{"resolve-counter", func() { c.Counter("x", "k", "v") }},
		{"resolve-gauge", func() { c.Gauge("x") }},
		{"resolve-histogram", func() { c.Histogram("h", nil, "k", "v") }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs on the disabled path, want 0", tc.name, allocs)
		}
	}
}

// TestSnapshotSortedByName: a scrape writes the families in name order,
// whatever order they were created in, and each family's series in
// label order.
func TestSnapshotSortedByName(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.Counter(n+"_total", "k", n).Add(1)
		c.Counter("all_total", "k", n).Add(1)
		c.Histogram("h_"+n, []int64{1}).Observe(1)
	}
	var families, series []string
	for _, line := range strings.Split(scrape(t, NewExporter(c, nil)), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
		}
		if strings.HasPrefix(line, "all_total{") {
			series = append(series, line)
		}
	}
	want := []string{"all_total", "alpha_total", "h_alpha", "h_mid", "h_zeta", "mid_total", Namespace + "_scrapes_total", "zeta_total"}
	if strings.Join(families, " ") != strings.Join(want, " ") {
		t.Errorf("families in order %v, want %v", families, want)
	}
	if len(series) != 3 || series[0] != `all_total{k="alpha"} 1` || series[2] != `all_total{k="zeta"} 1` {
		t.Errorf("series out of label order: %q", series)
	}
}

// A scrape must be possible while writers are active without tripping
// the race detector or writing a histogram whose count and buckets
// disagree.
func TestSnapshotDuringWrites(t *testing.T) {
	c := New()
	e := NewExporter(c, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ct := c.Counter("w_total")
		h := c.Histogram("wh", ExpBuckets(1, 2, 16))
		i := int64(0)
		for {
			select {
			case <-done:
				return
			default:
				ct.Add(1)
				h.Observe(i % 64)
				c.Gauge("wg", "i", "x").Add(1)
				i++
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := Lint([]byte(scrape(t, e))); err != nil {
			t.Fatalf("scrape during writes: %v", err)
		}
	}
	close(done)
	wg.Wait()
}

// TestFamilyHoldsOneType: resolving a family as a second type is a
// programming error, caught where it is made.
func TestFamilyHoldsOneType(t *testing.T) {
	c := New()
	c.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("a counter family resolved as a histogram")
		}
	}()
	c.Histogram("x_total", nil)
}

// TestSeriesTakesOneLabel: a series has at most one label, so each label
// set has one spelling; an odd or a second pair panics where it is made.
func TestSeriesTakesOneLabel(t *testing.T) {
	c := New()
	c.Counter("x_total", "alg", "hvnl").Add(2)
	if got := c.Value(`x_total{alg="hvnl"}`); got != 2 {
		t.Errorf(`x_total{alg="hvnl"} = %d, want 2`, got)
	}
	for _, labels := range [][]string{{"alg"}, {"alg", "hvnl", "policy", "lru"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %q did not panic", labels)
				}
			}()
			c.Counter("x_total", labels...)
		}()
	}
}
