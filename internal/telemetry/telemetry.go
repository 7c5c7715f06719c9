// Package telemetry is the aggregate instrumentation layer of the join
// system: atomic counters and bucketed histograms, exported through a
// Sink.
//
// The paper's whole argument is built on counting — page reads, cache
// hits, pass counts — and this package makes those counts observable
// while a join runs instead of only in the coarse Stats struct after the
// fact. Every layer that does work reports here: iosim classifies page
// reads per file, the entry cache reports hits and evictions by policy,
// and the joins publish their Stats and accumulator occupancy. Timing
// is not measured here: the package reads no clock. Where a request's
// time went is internal/reqtrace's span tree, and the per-phase duration
// histograms ("phase.<phase>.ns") are derived from a finished tree by
// reqtrace.ObservePhases.
//
// The package is zero-dependency and near-zero-overhead when disabled:
// a nil *Collector disables everything. All Collector, Counter and
// Histogram methods are nil-safe no-ops, so instrumented code holds
// plain fields and calls them unconditionally — the disabled path is a
// predictable nil check and performs no allocation. Instrumented hot
// loops resolve their counters once, outside the loop, so the
// per-operation cost is one atomic add when enabled and one branch when
// not.
//
// Collectors are safe for concurrent use: counters and histogram buckets
// are atomics, and Snapshot can run while writers are active (the
// differential harness pins that results are identical with collection
// running concurrently).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Collector gathers counters and histograms. The zero value is not
// usable; create with New. A nil *Collector is the disabled collector:
// every method is a cheap no-op.
type Collector struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates an enabled collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// Counter returns the named counter, creating it on first use. A nil
// collector returns a nil counter, whose methods are no-ops — resolve
// counters once and call Add unconditionally.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct, ok := c.counters[name]; ok {
		return ct
	}
	ct := &Counter{name: name}
	c.counters[name] = ct
	return ct
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) on first use; later calls return the
// existing histogram regardless of bounds. A nil collector returns a nil
// histogram.
func (c *Collector) Histogram(name string, bounds []int64) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hists[name]; ok {
		return h
	}
	h := newHistogram(name, bounds)
	c.hists[name] = h
	return h
}

// Counter is a named atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add accumulates n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count, 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a named bucketed histogram over int64 observations
// (latencies in nanoseconds, sizes in bytes or pages). Buckets are
// defined by ascending inclusive upper bounds; one implicit overflow
// bucket catches everything above the last bound.
type Histogram struct {
	name   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(name string, bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{name: name, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations, 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor: the standard shape for latency and size
// histograms.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor >= 2, n > 0")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket shapes shared by the instrumented layers.
var (
	// DefaultLatencyBuckets spans 1µs .. ~4.3s in powers of 4 (ns).
	DefaultLatencyBuckets = ExpBuckets(1000, 4, 12)
	// DefaultSizeBuckets spans 1 .. 32768 in powers of 2 (pages, cells,
	// entries — any small cardinality).
	DefaultSizeBuckets = ExpBuckets(1, 2, 16)
)

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one histogram bucket in a Snapshot: the count of
// observations v with previousBound < v <= Le. The overflow bucket has
// Le == math.MaxInt64 and renders as "+Inf".
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramValue is one histogram in a Snapshot. Bucket counts are
// per-bucket (not cumulative) and sum to Count.
type HistogramValue struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of everything the collector holds,
// ready for a Sink. Counters and histograms are sorted by name.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms"`
}

const maxInt64 = int64(^uint64(0) >> 1)

// Snapshot copies the current state. Safe to call while writers are
// active; counter and bucket reads are individually atomic (the snapshot
// is a consistent-enough view for reporting, not a serializable
// transaction). A nil collector returns an empty snapshot.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	s := &Snapshot{}
	c.mu.Lock()
	counters := make([]*Counter, 0, len(c.counters))
	for _, ct := range c.counters {
		counters = append(counters, ct)
	}
	hists := make([]*Histogram, 0, len(c.hists))
	for _, h := range c.hists {
		hists = append(hists, h)
	}
	c.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, ct := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: ct.name, Value: ct.v.Load()})
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, h := range hists {
		hv := HistogramValue{Name: h.name, Count: h.n.Load(), Sum: h.sum.Load()}
		var inBuckets int64
		for i := range h.counts {
			le := maxInt64
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			n := h.counts[i].Load()
			inBuckets += n
			hv.Buckets = append(hv.Buckets, Bucket{Le: le, Count: n})
		}
		// Writers update count and buckets non-transactionally; pin the
		// exported invariant (bucket counts sum to Count) to what the
		// buckets actually held at read time.
		hv.Count = inBuckets
		s.Histograms = append(s.Histograms, hv)
	}
	return s
}
