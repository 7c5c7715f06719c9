package metrics

import (
	"io"
	"net/http"
	"sync"
	"time"

	"textjoin/internal/telemetry"
)

// Exporter serves a collector's state as Prometheus text, computing
// per-second rate gauges between successive scrapes via Snapshot.Diff.
//
// Scraping never blocks a running join's hot path: taking a snapshot
// reads counters and buckets atomically and holds the collector's short
// map mutex only while listing them — the same operations the
// differential harness pins as safe concurrent with collection. A nil
// collector exports only the exporter's own scrape counter, so a server
// with telemetry disabled still answers /metrics.
//
// Exporter is safe for concurrent use; concurrent scrapes serialize only
// on the small previous-snapshot swap, not on encoding.
type Exporter struct {
	col   *telemetry.Collector
	now   func() time.Time
	extra func() []Gauge

	mu      sync.Mutex
	prev    *telemetry.Snapshot
	prevAt  time.Time
	scrapes int64
}

// Gauge is one externally-computed gauge sample injected into a scrape
// by a WithExtraGauges callback — the hook the SLO engine uses to
// export textjoin_slo_* families next to the telemetry-derived ones.
type Gauge struct {
	// Family is the full family name, e.g. "textjoin_slo_burn_rate".
	Family string
	// Help overrides the family HELP text when non-empty.
	Help string
	// LabelKey/LabelValue attach one label when LabelKey is non-empty.
	LabelKey, LabelValue string
	Value                float64
}

// ExporterOption configures an Exporter.
type ExporterOption func(*Exporter)

// WithExporterClock substitutes the time source used for rate windows,
// letting tests produce deterministic rates.
func WithExporterClock(now func() time.Time) ExporterOption {
	return func(e *Exporter) { e.now = now }
}

// WithExtraGauges registers a callback invoked on every scrape; the
// gauges it returns are rendered into the exposition alongside the
// snapshot-derived families. A nil callback is ignored.
func WithExtraGauges(fn func() []Gauge) ExporterOption {
	return func(e *Exporter) { e.extra = fn }
}

// NewExporter creates an exporter over col (which may be nil).
func NewExporter(col *telemetry.Collector, opts ...ExporterOption) *Exporter {
	// Rate gauges are wall-clock by design: they divide counter deltas
	// by real elapsed scrape time. Nothing byte-stable consumes them
	// (benchreport reads counters, not rates), and tests substitute
	// WithExporterClock.
	e := &Exporter{col: col, now: time.Now} //lint:ignore wallclock inter-scrape rate windows are real elapsed time; deterministic consumers inject WithExporterClock
	for _, o := range opts {
		o(e)
	}
	return e
}

// WriteMetrics takes a snapshot, renders it with rate gauges against the
// previous scrape, and remembers it for the next one. The first scrape
// has no rate window and exports totals only. A nil exporter writes
// nothing — the same disabled-path contract as a nil collector.
func (e *Exporter) WriteMetrics(w io.Writer) error {
	if e == nil {
		return nil
	}
	s := e.col.Snapshot()
	now := e.now()

	e.mu.Lock()
	prev, prevAt := e.prev, e.prevAt
	e.prev, e.prevAt = s, now
	e.scrapes++
	scrapes := e.scrapes
	e.mu.Unlock()

	fs := newFamilySet()
	fs.addSnapshot(s)
	if prev != nil {
		fs.addRates(s.Diff(prev), now.Sub(prevAt).Seconds())
	}
	fs.addInt(Namespace+"_scrapes_total", "counter", nil, scrapes)
	if e.extra != nil {
		for _, g := range e.extra() {
			f := fs.get(g.Family, "gauge")
			if g.Help != "" {
				f.help = g.Help
			}
			var labels []labelPair
			if g.LabelKey != "" {
				labels = []labelPair{{g.LabelKey, g.LabelValue}}
			}
			f.ser = append(f.ser, series{labels: labels, value: g.Value})
		}
	}
	return fs.write(w)
}

// ServeHTTP implements the /metrics endpoint. A nil exporter answers
// 503 instead of panicking, keeping accidental nil wiring observable.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e == nil {
		http.Error(w, "metrics: nil exporter", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	if err := e.WriteMetrics(w); err != nil {
		// Headers are gone; all we can do is drop the connection early.
		return
	}
}
