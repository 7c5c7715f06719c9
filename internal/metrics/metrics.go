// Package metrics is a program's collector of counters, gauges and
// histograms, and its one wire format: the Prometheus text exposition
// (version 0.0.4), with zero dependencies beyond the standard library.
//
// The paper's whole argument is built on counting — page reads split
// sequential/random, cache hits, pass counts — and every join returns
// those counts in its Stats. A long-running program aggregates them
// here. No join, cache or disk writes to a collector: the programs that
// own one add each answered request once (textjoin.RecordJoin). Every
// series is created under the family, type and labels /metrics prints,
// so its name is spelled once, where its producer adds to it:
//
//	col.Counter("textjoin_join_hvnl_io_seq_total").Add(n)
//	col.Gauge("textjoin_http_inflight").Add(1)
//	col.Histogram("textjoin_phase_ns", DefaultLatencyBuckets, "phase", "scan").Observe(ns)
//
// and the Exporter writes the collector's families as they are. Timing
// is not measured here: the package reads no clock.
//
// A nil *Collector is the disabled collector: it, and the nil *Counter
// and *Histogram it returns, answer every method as a no-op without
// allocating, so a caller holds plain fields and calls them
// unconditionally. A Collector is safe for concurrent use: values are
// atomics, and a scrape may run while writers are active
// (TestSnapshotDuringWrites).
package metrics

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Namespace prefixes every exported metric name.
const Namespace = "textjoin"

// ContentType is the HTTP content type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Collector holds metric families by name. Create one with New.
type Collector struct {
	mu       sync.Mutex
	families map[string]*family
	memo     map[string]any // Memo's values, by key
}

// family is one metric family: its type, its HELP text and its series
// by label set.
type family struct {
	typ, help string
	series    map[string]series // by label pairs as printed, `k="v",…`; "" for none
}

// series is one instrument of a family: it writes its sample lines.
type series interface {
	write(b *bytes.Buffer, name, labels string)
}

// New creates an enabled collector.
func New() *Collector { return &Collector{families: make(map[string]*family)} }

// Counter returns the counter series of family with the given label
// (a key and a value, or none), creating it on first use. A nil collector
// returns a nil counter, whose methods are no-ops: resolve once and call
// Add unconditionally.
func (c *Collector) Counter(family string, labels ...string) *Counter {
	if c == nil {
		return nil
	}
	return c.resolve(family, "counter", labels, nil).(*Counter)
}

// Gauge returns a gauge series, a level its producer moves both ways
// with Add, like Counter.
func (c *Collector) Gauge(family string, labels ...string) *Counter {
	if c == nil {
		return nil
	}
	return c.resolve(family, "gauge", labels, nil).(*Counter)
}

// Histogram returns a histogram series like Counter, creating it with
// the given bucket upper bounds on first use; later calls return the
// existing histogram whatever their bounds.
func (c *Collector) Histogram(family string, bounds []int64, labels ...string) *Histogram {
	if c == nil {
		return nil
	}
	return c.resolve(family, "histogram", labels, bounds).(*Histogram)
}

// resolve returns family name's series under labels, creating the
// family, of type typ, and the series on first use. A family holds one
// type: resolving it as another is a programming error and panics.
func (c *Collector) resolve(name, typ string, labels []string, bounds []int64) series {
	ls := labelPairs(labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.families[name]
	if f == nil {
		f = &family{typ: typ, help: helpFor(name), series: make(map[string]series)}
		c.families[name] = f
	} else if f.typ != typ {
		panic("metrics: " + name + " is a " + f.typ + ", not a " + typ)
	}
	s := f.series[ls]
	if s == nil {
		if typ == "histogram" {
			s = newHistogram(bounds)
		} else {
			s = new(Counter)
		}
		f.series[ls] = s
	}
	return s
}

// Memo returns the value c keeps under key, which build makes on c's
// first call for key: what a producer resolves once per collector rather
// than on every record, such as the handles of the series it adds to.
// build runs under c's lock, so it must not use c. A nil collector
// returns nil.
func Memo[T any](c *Collector, key string, build func() *T) *T {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.memo[key].(*T); ok {
		return v
	}
	if c.memo == nil {
		c.memo = make(map[string]any)
	}
	v := build()
	c.memo[key] = v
	return v
}

// Value reads one series without creating it, by the name /metrics
// prints it under: the family and its labels, as in
// `textjoin_plan_chosen_total{alg="hvnl"}`. A counter reads its total, a
// gauge its level and a histogram its observation count; a series not
// yet written reads 0.
func (c *Collector) Value(series string) int64 {
	switch s := c.lookup(series).(type) {
	case *Counter:
		return s.Value()
	case *Histogram:
		return s.Count()
	}
	return 0
}

// AtMost reads a histogram series named as for Value: the observations
// in buckets whose upper bound is at most le, and all of them.
func (c *Collector) AtMost(series string, le int64) (atMost, all int64) {
	h, _ := c.lookup(series).(*Histogram)
	if h == nil {
		return 0, 0
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		all += n
		if i < len(h.bounds) && h.bounds[i] <= le {
			atMost += n
		}
	}
	return atMost, all
}

func (c *Collector) lookup(name string) series {
	if c == nil {
		return nil
	}
	name, labels, _ := strings.Cut(name, "{")
	labels = strings.TrimSuffix(labels, "}")
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.families[name]; f != nil {
		return f.series[labels]
	}
	return nil
}

// write renders the collector's families, and extra ones, in name order
// into b. Rendering into a buffer keeps the lock off the scraper's
// connection.
func (c *Collector) write(b *bytes.Buffer, extra map[string]*family) {
	c.mu.Lock()
	defer c.mu.Unlock()
	maps.Copy(extra, c.families)
	for _, name := range sortedKeys(extra) {
		f := extra[name]
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, ls := range sortedKeys(f.series) {
			f.series[ls].write(b, name, ls)
		}
	}
}

// Counter is one counter or gauge series: an atomic int64.
type Counter struct{ v atomic.Int64 }

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

func (c *Counter) write(b *bytes.Buffer, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, braces(labels, ""), c.v.Load())
}

// gaugeValue is one float gauge sample, computed at scrape time (the
// Exporter's extra gauges).
type gaugeValue float64

func (g gaugeValue) write(b *bytes.Buffer, name, labels string) {
	fmt.Fprintf(b, "%s%s %s\n", name, braces(labels, ""), strconv.FormatFloat(float64(g), 'g', -1, 64))
}

// Histogram is a bucketed histogram over int64 observations (latencies
// in nanoseconds, sizes in bytes or pages). Buckets are defined by
// ascending inclusive upper bounds; one implicit overflow bucket catches
// everything above the last bound.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
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
}

// Count returns the number of observations, 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// write renders cumulative buckets, the sum and the count. The count is
// the buckets' total as read, so it equals the +Inf bucket even while
// writers are active.
func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	var cum int64
	for i := range h.counts {
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatInt(h.bounds[i], 10)
		}
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, braces(labels, `le="`+le+`"`), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %d\n", name, braces(labels, ""), h.sum.Load())
	fmt.Fprintf(b, "%s_count%s %d\n", name, braces(labels, ""), cum)
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor: the standard shape for latency and size
// histograms.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("metrics: ExpBuckets needs start > 0, factor >= 2, n > 0")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 1µs .. ~4.3s in powers of 4 (ns): the
// shape of every duration histogram.
var DefaultLatencyBuckets = ExpBuckets(1000, 4, 12)

// helpFor returns the HELP text of a family.
func helpFor(name string) string {
	switch {
	case strings.HasPrefix(name, Namespace+"_iosim_file_seq"):
		return "Sequential page reads per simulated file."
	case strings.HasPrefix(name, Namespace+"_iosim_file_rand"):
		return "Random page reads per simulated file."
	case strings.HasPrefix(name, Namespace+"_iosim_file_writes"):
		return "Page writes per simulated file."
	case strings.HasPrefix(name, Namespace+"_entrycache_"):
		return "Entry cache events by replacement policy."
	case name == Namespace+"_plan_chosen_total":
		return "Integrated-algorithm choices by algorithm."
	case strings.HasPrefix(name, Namespace+"_prefilter_"):
		return "Signature prefilter pruning outcomes by join algorithm."
	case name == Namespace+"_phase_ns":
		return "Span durations per execution phase in nanoseconds."
	case name == Namespace+"_http_inflight":
		return "Join requests currently admitted and executing."
	case name == Namespace+"_http_queue_depth":
		return "Join requests parked in the admission queue."
	case name == Namespace+"_http_rejected_total":
		return "Join requests rejected by admission control (queue full or wait deadline)."
	case name == Namespace+"_http_request_ns":
		return "HTTP request latency per endpoint in nanoseconds."
	case name == Namespace+"_plan_error_log2":
		return "Planner cost error per integrated join: milli-log2 of measured over estimated cost."
	case strings.HasPrefix(name, Namespace+"_slo_"):
		return "Service-level objective gauge computed over the rolling SLO window."
	case strings.HasPrefix(name, Namespace+"_join_"):
		return "Join execution counter (see DESIGN.md §10 naming scheme)."
	case name == Namespace+"_scrapes_total":
		return "Metrics scrapes served by this exporter."
	}
	return "Telemetry metric exported by textjoin."
}

// labelPairs renders labels (key, value) as a sample line's label set,
// `k="v"`, the value escaped per the exposition format. A series takes
// at most one label, so one label set has one spelling, the one Value
// reads it by.
func labelPairs(kv []string) string {
	switch len(kv) {
	case 0:
		return ""
	case 2:
		return kv[0] + `="` + escapeLabel(kv[1]) + `"`
	}
	panic("metrics: a series takes at most one label, a key and a value")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// braces joins a label set and an optional le pair into a sample line's
// label block; both empty give none.
func braces(labels, le string) string {
	switch {
	case le == "" && labels == "":
		return ""
	case le == "":
		return "{" + labels + "}"
	case labels == "":
		return "{" + le + "}"
	}
	return "{" + labels + "," + le + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
