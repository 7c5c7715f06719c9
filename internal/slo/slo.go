// Package slo computes service-level objectives — availability and
// latency targets — over rolling windows of telemetry snapshots, and
// derives the two numbers an operator actually pages on: error budget
// remaining and burn rate.
//
// The engine is deliberately thin: it owns no clock ticker and no
// goroutine. Each /metrics scrape (or loadgen -check probe) drives one
// Collect, which snapshots the collector, appends a timestamped sample
// of the cumulative good/bad counts per objective, trims samples that
// fell out of the window, and reports the delta between the newest
// sample and the oldest retained one. Between scrapes nothing runs and
// nothing is locked, so the join hot path never sees this package.
//
// The math is the standard SRE formulation. Over the window,
//
//	compliance       = good / (good + bad)        (1 with no traffic)
//	allowed bad frac = 1 - target
//	burn rate        = badFrac / (1 - target)     (1.0 = spending budget
//	                                               exactly as fast as
//	                                               the SLO allows)
//	budget remaining = 1 - burn rate              (negative = SLO blown)
//
// Like every internal package under the wallclock lint, the engine
// reads time only through the injected clock.
package slo

import (
	"fmt"
	"sync"
	"time"

	"textjoin/internal/metrics"
	"textjoin/internal/telemetry"
)

// DefaultWindow is the rolling window when New is given none.
const DefaultWindow = 5 * time.Minute

// Objective is one service-level objective. Exactly one of the two
// shapes is set:
//
//   - Latency: Histogram names a telemetry histogram (nanosecond
//     observations); an observation is good when its bucket's upper
//     bound is <= ThresholdNanos. Classification is bucket-resolution:
//     a bucket straddling the threshold counts bad, so the reported
//     compliance is a lower bound.
//   - Availability: Good and Bad name telemetry counters; their sums
//     are the good/bad event counts.
type Objective struct {
	// Name labels the objective in exported gauges.
	Name string
	// Target is the objective, in (0, 1), e.g. 0.99.
	Target float64

	// Histogram + ThresholdNanos define a latency objective.
	Histogram      string
	ThresholdNanos int64

	// Good and Bad define an availability objective.
	Good []string
	Bad  []string
}

func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective with empty name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %s: target %v outside (0, 1)", o.Name, o.Target)
	}
	latency := o.Histogram != ""
	avail := len(o.Good) > 0 || len(o.Bad) > 0
	if latency == avail {
		return fmt.Errorf("slo: objective %s: set either Histogram or Good/Bad counters", o.Name)
	}
	if latency && o.ThresholdNanos <= 0 {
		return fmt.Errorf("slo: objective %s: latency objective needs ThresholdNanos > 0", o.Name)
	}
	return nil
}

// Status is one objective's state over the current window.
type Status struct {
	Name   string
	Target float64
	// Good and Bad are the event counts inside the window.
	Good, Bad int64
	// Compliance is good/(good+bad); 1 with no traffic.
	Compliance float64
	// BudgetRemaining is the fraction of the window's error budget left
	// (1 = untouched, 0 = exhausted, negative = SLO violated).
	BudgetRemaining float64
	// BurnRate is how fast the budget is being spent relative to the
	// allowed rate (1.0 = exactly at the SLO boundary).
	BurnRate float64
	// WindowSeconds is the span actually covered (shorter than the
	// configured window until enough samples accumulate).
	WindowSeconds float64
}

// sample is one timestamped reading of the cumulative good/bad counts.
type sample struct {
	at        time.Time
	good, bad []int64 // indexed by objective
}

// Engine evaluates objectives against a telemetry collector. Safe for
// concurrent use; Collect serializes on one short mutex. A nil *Engine
// is the disabled engine: Collect and Gauges return nothing.
type Engine struct {
	col        *telemetry.Collector
	now        func() time.Time
	window     time.Duration
	objectives []Objective

	mu      sync.Mutex
	samples []sample
}

// New creates an engine over col with the given rolling window
// (DefaultWindow when <= 0). The clock is required, as everywhere in
// this repo outside package telemetry. The engine seeds itself with
// one sample at creation, so the first Collect already has a baseline
// — objectives measure from engine start, not from process start.
func New(col *telemetry.Collector, now func() time.Time, window time.Duration, objectives []Objective) (*Engine, error) {
	if now == nil {
		panic("slo: New needs a clock")
	}
	if window <= 0 {
		window = DefaultWindow
	}
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
	}
	e := &Engine{col: col, now: now, window: window, objectives: objectives}
	e.samples = append(e.samples, e.read())
	return e, nil
}

// Objectives returns the configured objectives.
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return e.objectives
}

// read takes one cumulative sample from the collector.
func (e *Engine) read() sample {
	s := sample{
		at:   e.now(),
		good: make([]int64, len(e.objectives)),
		bad:  make([]int64, len(e.objectives)),
	}
	snap := e.col.Snapshot()
	hists := make(map[string]*telemetry.HistogramValue, len(snap.Histograms))
	for i := range snap.Histograms {
		hists[snap.Histograms[i].Name] = &snap.Histograms[i]
	}
	counters := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for i, o := range e.objectives {
		if o.Histogram != "" {
			h, ok := hists[o.Histogram]
			if !ok {
				continue
			}
			for _, b := range h.Buckets {
				if b.Le <= o.ThresholdNanos {
					s.good[i] += b.Count
				} else {
					s.bad[i] += b.Count
				}
			}
			continue
		}
		for _, name := range o.Good {
			s.good[i] += counters[name]
		}
		for _, name := range o.Bad {
			s.bad[i] += counters[name]
		}
	}
	return s
}

// Collect takes a fresh sample, slides the window, and returns every
// objective's status over it. Nil engine returns nil.
func (e *Engine) Collect() []Status {
	if e == nil {
		return nil
	}
	cur := e.read()

	e.mu.Lock()
	// Drop samples older than the window, but always keep the newest
	// too-old one: it is the baseline the window delta measures from.
	cutoff := cur.at.Add(-e.window)
	keep := 0
	for i, s := range e.samples {
		if s.at.After(cutoff) {
			break
		}
		keep = i
	}
	e.samples = e.samples[keep:]
	base := e.samples[0]
	e.samples = append(e.samples, cur)
	e.mu.Unlock()

	out := make([]Status, len(e.objectives))
	for i, o := range e.objectives {
		good := cur.good[i] - base.good[i]
		bad := cur.bad[i] - base.bad[i]
		if good < 0 {
			good = 0
		}
		if bad < 0 {
			bad = 0
		}
		st := Status{
			Name:          o.Name,
			Target:        o.Target,
			Good:          good,
			Bad:           bad,
			Compliance:    1,
			WindowSeconds: cur.at.Sub(base.at).Seconds(),
		}
		if total := good + bad; total > 0 {
			st.Compliance = float64(good) / float64(total)
			badFrac := float64(bad) / float64(total)
			st.BurnRate = badFrac / (1 - o.Target)
		}
		st.BudgetRemaining = 1 - st.BurnRate
		out[i] = st
	}
	return out
}

// Gauges runs Collect and renders the result as exporter gauges — the
// textjoin_slo_* families. Pass it as metrics.NewExporter's extra
// callback so every /metrics scrape re-evaluates the window. Nil engine returns
// nil.
func (e *Engine) Gauges() []metrics.Gauge {
	if e == nil {
		return nil
	}
	statuses := e.Collect()
	out := make([]metrics.Gauge, 0, 5*len(statuses))
	for _, st := range statuses {
		add := func(family, help string, v float64) {
			out = append(out, metrics.Gauge{
				Family:     metrics.Namespace + "_slo_" + family,
				Help:       help,
				LabelKey:   "objective",
				LabelValue: st.Name,
				Value:      v,
			})
		}
		add("target", "Configured objective target.", st.Target)
		add("compliance", "Fraction of good events over the rolling SLO window (1 with no traffic).", st.Compliance)
		add("error_budget_remaining", "Fraction of the window's error budget left; negative means the SLO is violated.", st.BudgetRemaining)
		add("burn_rate", "Error budget spend rate relative to the allowed rate; above 1 the SLO is being violated.", st.BurnRate)
		add("window_seconds", "Span actually covered by the rolling SLO window.", st.WindowSeconds)
	}
	return out
}
