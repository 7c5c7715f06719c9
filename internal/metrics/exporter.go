package metrics

import (
	"bytes"
	"io"
	"net/http"
)

// Exporter serves a collector's families as Prometheus text. It keeps no
// state between scrapes beyond its scrape counter
// (textjoin_scrapes_total, a series of the collector): every scrape
// renders the totals as they are, and rates are the scraper's to compute
// (PromQL's rate()), so no caller's scrape moves another's window.
//
// Scraping never blocks a running join's hot path: adding to a series is
// an atomic, and the collector's mutex is held only while the families
// are rendered into a buffer, never while the buffer is written out.
//
// Exporter is safe for concurrent use.
type Exporter struct {
	col   *Collector
	extra func() []Gauge
}

// Gauge is one externally-computed gauge sample injected into a scrape
// by an Exporter's extra callback — the hook the SLO engine uses to
// export textjoin_slo_* families next to the collector's.
type Gauge struct {
	// Family is the full family name, e.g. "textjoin_slo_burn_rate".
	Family string
	// Help overrides the family HELP text when non-empty.
	Help string
	// LabelKey/LabelValue attach one label when LabelKey is non-empty.
	LabelKey, LabelValue string
	Value                float64
}

// NewExporter creates an exporter over col. A nil col gets a collector
// of its own, which holds only the scrape counter, so a program with
// telemetry disabled still answers /metrics. extra, when not nil, is
// called on every scrape; the gauges it returns are rendered alongside
// the collector's families.
func NewExporter(col *Collector, extra func() []Gauge) *Exporter {
	if col == nil {
		col = New()
	}
	return &Exporter{col: col, extra: extra}
}

// WriteMetrics counts the scrape and renders the collector's families
// and the extra gauges. A nil exporter writes nothing — the same
// disabled-path contract as a nil collector.
func (e *Exporter) WriteMetrics(w io.Writer) error {
	if e == nil {
		return nil
	}
	e.col.Counter(Namespace + "_scrapes_total").Add(1)
	extra := map[string]*family{}
	if e.extra != nil {
		for _, g := range e.extra() {
			f := extra[g.Family]
			if f == nil {
				f = &family{typ: "gauge", help: helpFor(g.Family), series: make(map[string]series)}
				extra[g.Family] = f
			}
			if g.Help != "" {
				f.help = g.Help
			}
			var labels []string
			if g.LabelKey != "" {
				labels = []string{g.LabelKey, g.LabelValue}
			}
			f.series[labelPairs(labels)] = gaugeValue(g.Value)
		}
	}
	var b bytes.Buffer
	e.col.write(&b, extra)
	_, err := w.Write(b.Bytes())
	return err
}

// ServeHTTP implements the /metrics endpoint. A nil exporter answers
// 503 instead of panicking, keeping accidental nil wiring observable.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e == nil {
		http.Error(w, "metrics: nil exporter", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	// An error means the connection is gone; there is no one to tell.
	_ = e.WriteMetrics(w)
}
