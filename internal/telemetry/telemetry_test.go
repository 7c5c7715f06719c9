package telemetry

import (
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
	for _, v := range []int64{1001, maxInt64} {
		h.Observe(v) // overflow bucket (le +Inf)
	}
	s := c.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	wantCounts := []int64{3, 2, 2, 2}
	wantLe := []int64{10, 100, 1000, maxInt64}
	if len(hv.Buckets) != len(wantCounts) {
		t.Fatalf("buckets = %d, want %d", len(hv.Buckets), len(wantCounts))
	}
	for i, b := range hv.Buckets {
		if b.Le != wantLe[i] || b.Count != wantCounts[i] {
			t.Errorf("bucket %d = {le %d, count %d}, want {le %d, count %d}",
				i, b.Le, b.Count, wantLe[i], wantCounts[i])
		}
	}
	if hv.Count != 9 {
		t.Errorf("count = %d, want 9", hv.Count)
	}
	if h.Count() != 9 {
		t.Errorf("Count() = %d, want 9", h.Count())
	}
}

func TestHistogramBoundsSortedAndReused(t *testing.T) {
	c := New()
	h1 := c.Histogram("h", []int64{100, 1, 10}) // unsorted input is sorted
	h1.Observe(5)
	s := c.Snapshot()
	got := s.Histograms[0].Buckets
	if got[0].Le != 1 || got[1].Le != 10 || got[2].Le != 100 {
		t.Errorf("bounds not sorted: %+v", got)
	}
	if got[1].Count != 1 {
		t.Errorf("5 landed in the wrong bucket: %+v", got)
	}
	// A second resolve with different bounds returns the existing histogram.
	h2 := c.Histogram("h", []int64{7})
	if h1 != h2 {
		t.Error("re-resolving a histogram by name created a new one")
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
			ct := c.Counter("shared")
			h := c.Histogram("shared.h", ExpBuckets(1, 2, 16))
			for i := 0; i < adds; i++ {
				ct.Add(1)
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if v := c.Counter("shared").Value(); v != goroutines*adds {
		t.Errorf("counter = %d, want %d", v, goroutines*adds)
	}
	if n := c.Histogram("shared.h", nil).Count(); n != goroutines*adds {
		t.Errorf("histogram count = %d, want %d", n, goroutines*adds)
	}
}

func TestNilCollectorIsDisabled(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports enabled")
	}
	// None of these may panic.
	c.Counter("x").Add(3)
	if v := c.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	c.Histogram("h", ExpBuckets(1, 2, 16)).Observe(5)
	if n := c.Histogram("h", nil).Count(); n != 0 {
		t.Errorf("nil histogram count = %d", n)
	}
	s := c.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
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
		{"resolve-counter", func() { c.Counter("x") }},
		{"resolve-histogram", func() { c.Histogram("h", nil) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs on the disabled path, want 0", tc.name, allocs)
		}
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.Counter(n).Add(1)
		c.Histogram("h."+n, []int64{1}).Observe(1)
	}
	s := c.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Errorf("counters not sorted: %q before %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name >= s.Histograms[i].Name {
			t.Errorf("histograms not sorted: %q before %q", s.Histograms[i-1].Name, s.Histograms[i].Name)
		}
	}
}

// Snapshot must be callable while writers are active without tripping the
// race detector or producing an inconsistent bucket/count pair.
func TestSnapshotDuringWrites(t *testing.T) {
	c := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ct := c.Counter("w")
		h := c.Histogram("wh", ExpBuckets(1, 2, 16))
		i := int64(0)
		for {
			select {
			case <-done:
				return
			default:
				ct.Add(1)
				h.Observe(i % 64)
				i++
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s := c.Snapshot()
		for _, hv := range s.Histograms {
			var sum int64
			for _, b := range hv.Buckets {
				sum += b.Count
			}
			if sum != hv.Count {
				t.Fatalf("histogram %s: buckets sum to %d, count %d", hv.Name, sum, hv.Count)
			}
		}
	}
	close(done)
	wg.Wait()
}
