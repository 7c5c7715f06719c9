package costmodel

// Calibration auditing: how well do the Section 5 formulas predict
// measured I/O cost? The integrated algorithm (Sections 6–7) stands or
// falls with this — it picks the join strategy purely from estimates, so
// a systematic estimation error on one algorithm silently turns into
// wrong picks. This file aggregates estimated-vs-measured samples into
// per-algorithm error histograms and detects the cells where the
// estimate-ranked winner differs from the measured one.
//
// Like the rest of the package it is pure arithmetic over numbers the
// caller supplies: samples come from cmd/benchreport replaying the
// planner's plan events across the experiment grid, with both costs in
// the paper's sequential-page-read units.

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Sample is one estimated-vs-measured cost observation for one algorithm
// on one grid cell.
type Sample struct {
	// Label identifies the grid cell, e.g. "wsj-wsj/s2048".
	Label string
	// Algorithm whose cost was estimated and measured.
	Algorithm Algorithm
	// Estimated is the model cost (Seq variant) in sequential-page units.
	Estimated float64
	// Measured is the α-priced measured cost in the same units.
	Measured float64
}

// Ratio returns measured/estimated — 1.0 is a perfect model; 2.0 means
// the join cost twice the estimate. An estimate of zero yields +Inf
// unless the measurement is also zero.
func (s Sample) Ratio() float64 {
	if s.Estimated == 0 {
		if s.Measured == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return s.Measured / s.Estimated
}

// Log2Err returns log2(measured/estimated): 0 is perfect, +1 is 2×
// underestimation, −1 is 2× overestimation. The symmetric error used for
// the mean-absolute summary.
func (s Sample) Log2Err() float64 { return math.Log2(s.Ratio()) }

// DefaultRatioBounds are the measured/estimated bucket upper bounds of
// the error histograms: three overestimation bands, a ±5% "calibrated"
// band, and three underestimation bands (plus the implicit overflow).
var DefaultRatioBounds = []float64{0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2, 4}

// ErrorHistogram is the estimated-vs-measured error distribution of one
// algorithm: Counts[i] samples with previousBound < Ratio ≤ Bounds[i],
// one overflow bucket above the last bound.
type ErrorHistogram struct {
	Algorithm Algorithm
	Bounds    []float64
	Counts    []int64 // len(Bounds)+1
	N         int64
	// MeanAbsLog2 is the mean |log2(measured/estimated)|: 0 is a perfect
	// model, 1 means the typical estimate is off by 2× in one direction
	// or the other.
	MeanAbsLog2 float64
	// Worst identifies the sample with the largest |log2 error|.
	Worst      Sample
	WorstAbsL2 float64
}

// Mispick is a grid cell where ranking algorithms by estimated cost
// picks a different winner than ranking them by measured cost — exactly
// the cells where the integrated algorithm would run the wrong join.
type Mispick struct {
	Label         string
	EstimatedBest Algorithm
	MeasuredBest  Algorithm
	// Penalty is measured(EstimatedBest)/measured(MeasuredBest): how much
	// more the integrated algorithm's pick costs than the true winner.
	Penalty float64
}

// Calibration aggregates samples.
type Calibration struct {
	bounds  []float64
	samples []Sample
}

// NewCalibration creates an empty aggregation; nil bounds use
// DefaultRatioBounds.
func NewCalibration(bounds []float64) *Calibration {
	if bounds == nil {
		bounds = DefaultRatioBounds
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Calibration{bounds: b}
}

// Add records one sample. Samples with non-finite or negative values are
// kept out of the histograms but would poison ratios; they are rejected.
func (c *Calibration) Add(s Sample) error {
	if math.IsNaN(s.Estimated) || math.IsNaN(s.Measured) || s.Estimated < 0 || s.Measured < 0 {
		return fmt.Errorf("costmodel: invalid calibration sample %+v", s)
	}
	c.samples = append(c.samples, s)
	return nil
}

// Samples returns the recorded samples in insertion order.
func (c *Calibration) Samples() []Sample { return c.samples }

// Histogram aggregates the error distribution of one algorithm. An
// algorithm with no samples returns a zero-count histogram.
func (c *Calibration) Histogram(a Algorithm) ErrorHistogram {
	h := ErrorHistogram{
		Algorithm: a,
		Bounds:    c.bounds,
		Counts:    make([]int64, len(c.bounds)+1),
	}
	var sumAbs float64
	for _, s := range c.samples {
		if s.Algorithm != a {
			continue
		}
		r := s.Ratio()
		i := 0
		for i < len(c.bounds) && r > c.bounds[i] {
			i++
		}
		h.Counts[i]++
		h.N++
		abs := math.Abs(s.Log2Err())
		sumAbs += abs
		if abs >= h.WorstAbsL2 {
			h.Worst, h.WorstAbsL2 = s, abs
		}
	}
	if h.N > 0 {
		h.MeanAbsLog2 = sumAbs / float64(h.N)
	}
	return h
}

// Histograms returns the three per-algorithm histograms in the paper's
// order.
func (c *Calibration) Histograms() []ErrorHistogram {
	return []ErrorHistogram{
		c.Histogram(AlgHHNL),
		c.Histogram(AlgHVNL),
		c.Histogram(AlgVVM),
	}
}

// Mispicks returns, label by label, the cells where the estimated
// ranking and the measured ranking disagree about the winning algorithm.
// Labels with fewer than two algorithms sampled cannot be ranked and are
// skipped. Results are sorted by label.
func (c *Calibration) Mispicks() []Mispick {
	type cell struct {
		est, meas map[Algorithm]float64
	}
	cells := make(map[string]*cell)
	var labels []string
	for _, s := range c.samples {
		cl, ok := cells[s.Label]
		if !ok {
			cl = &cell{est: make(map[Algorithm]float64), meas: make(map[Algorithm]float64)}
			cells[s.Label] = cl
			labels = append(labels, s.Label)
		}
		cl.est[s.Algorithm] = s.Estimated
		cl.meas[s.Algorithm] = s.Measured
	}
	sort.Strings(labels)

	argmin := func(m map[Algorithm]float64) Algorithm {
		best := Algorithm(-1)
		bestV := math.Inf(1)
		// Ties break in the paper's presentation order HHNL, HVNL, VVM.
		for _, a := range []Algorithm{AlgHHNL, AlgHVNL, AlgVVM} {
			if v, ok := m[a]; ok && v < bestV {
				best, bestV = a, v
			}
		}
		return best
	}

	var out []Mispick
	for _, label := range labels {
		cl := cells[label]
		if len(cl.est) < 2 {
			continue
		}
		eb, mb := argmin(cl.est), argmin(cl.meas)
		if eb == mb {
			continue
		}
		mp := Mispick{Label: label, EstimatedBest: eb, MeasuredBest: mb, Penalty: math.Inf(1)}
		if best := cl.meas[mb]; best > 0 {
			mp.Penalty = cl.meas[eb] / best
		}
		out = append(out, mp)
	}
	return out
}

// WriteReport renders the calibration audit as human-readable text: one
// error histogram per algorithm, then the mispick table. The format is
// markdown-friendly (it is what cmd/benchreport -calreport writes).
func (c *Calibration) WriteReport(w io.Writer) error {
	ew := &reportWriter{w: w}
	ew.printf("# Cost-model calibration report\n\n")
	ew.printf("%d samples; ratio = measured/estimated cost (1.0 = perfect model).\n\n", len(c.samples))
	for _, h := range c.Histograms() {
		ew.printf("## %v\n\n", h.Algorithm)
		if h.N == 0 {
			ew.printf("no samples\n\n")
			continue
		}
		ew.printf("samples=%d mean|log2 err|=%.3f worst=%s (ratio %.3g)\n\n",
			h.N, h.MeanAbsLog2, h.Worst.Label, h.Worst.Ratio())
		prev := 0.0
		for i, n := range h.Counts {
			var band string
			switch {
			case i == 0:
				band = fmt.Sprintf("      ratio ≤ %-5.3g", h.Bounds[0])
			case i < len(h.Bounds):
				band = fmt.Sprintf("%5.3g < ratio ≤ %-5.3g", prev, h.Bounds[i])
			default:
				band = fmt.Sprintf("%5.3g < ratio        ", prev)
			}
			if i < len(h.Bounds) {
				prev = h.Bounds[i]
			}
			ew.printf("    %s %4d %s\n", band, n, bar(n, h.N))
		}
		ew.printf("\n")
	}
	mis := c.Mispicks()
	ew.printf("## Integrated-algorithm mispicks\n\n")
	if len(mis) == 0 {
		ew.printf("none: the estimated ranking matches the measured ranking on every cell.\n")
	} else {
		for _, m := range mis {
			ew.printf("  %-24s estimated winner %v, measured winner %v, penalty %.3gx\n",
				m.Label, m.EstimatedBest, m.MeasuredBest, m.Penalty)
		}
	}
	return ew.err
}

// bar renders a proportional ASCII bar (max 40 chars).
func bar(n, total int64) string {
	if total == 0 || n == 0 {
		return ""
	}
	w := int(40 * n / total)
	if w == 0 {
		w = 1
	}
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

type reportWriter struct {
	w   io.Writer
	err error
}

func (r *reportWriter) printf(format string, args ...any) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, format, args...)
	}
}
