package metrics

import (
	"io"
	"net/http"
	"sync/atomic"

	"textjoin/internal/telemetry"
)

// Exporter serves a collector's state as Prometheus text. It keeps no
// state between scrapes beyond its own scrape counter: every scrape
// renders the totals as they are, and rates are the scraper's to
// compute (PromQL's rate()), so no caller's scrape moves another's
// window.
//
// Scraping never blocks a running join's hot path: taking a snapshot
// reads counters and buckets atomically and holds the collector's short
// map mutex only while listing them — the same operations the
// differential harness pins as safe concurrent with collection. A nil
// collector exports only the exporter's own scrape counter, so a server
// with telemetry disabled still answers /metrics.
//
// Exporter is safe for concurrent use.
type Exporter struct {
	col     *telemetry.Collector
	extra   func() []Gauge
	scrapes atomic.Int64
}

// Gauge is one externally-computed gauge sample injected into a scrape
// by an Exporter's extra callback — the hook the SLO engine uses to
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

// NewExporter creates an exporter over col (which may be nil). extra,
// when not nil, is called on every scrape; the gauges it returns are
// rendered alongside the snapshot-derived families.
func NewExporter(col *telemetry.Collector, extra func() []Gauge) *Exporter {
	return &Exporter{col: col, extra: extra}
}

// WriteMetrics renders a snapshot of the collector, the scrape counter
// and the extra gauges. A nil exporter writes nothing — the same
// disabled-path contract as a nil collector.
func (e *Exporter) WriteMetrics(w io.Writer) error {
	if e == nil {
		return nil
	}
	fs := newFamilySet()
	fs.addSnapshot(e.col.Snapshot())
	fs.addInt(Namespace+"_scrapes_total", "counter", nil, e.scrapes.Add(1))
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
