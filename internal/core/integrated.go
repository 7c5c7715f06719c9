package core

import (
	"fmt"
	"math"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/reqtrace"
	"textjoin/internal/stats"
)

// modelInput derives the cost-model description of a join from measured
// structures: C2's participating statistics come from the outer reader
// (subset statistics when a selection applies), while the inverted-file
// statistics stay at the base collections' values — the paper's point that
// inverted files do not shrink under selections.
func modelInput(in Inputs) (costmodel.Input, error) {
	if in.Outer == nil || in.Inner == nil {
		return costmodel.Input{}, fmt.Errorf("%w: cost model needs both collections", ErrMissingInput)
	}
	c1 := in.Inner.Stats()
	mi := costmodel.Input{
		C1:      costmodel.Collection{N: c1.N, K: c1.K, T: c1.T},
		InvOnC1: costmodel.Collection{N: c1.N, K: c1.K, T: c1.T},
	}
	base := in.Outer.BaseStats()
	mi.InvOnC2 = costmodel.Collection{N: base.N, K: base.K, T: base.T}
	switch o := in.Outer.(type) {
	case *collection.Subset:
		st := o.Stats()
		mi.C2 = costmodel.Collection{N: st.N, K: st.K, T: st.T}
		mi.C2Random = true
	default:
		mi.C2 = mi.InvOnC2
	}
	// Measure q exactly from the memory-resident document-frequency
	// tables rather than using the simulation's three-band formula: the
	// planner has the real structures at hand.
	mi.Q = stats.OverlapQReader(in.Inner, in.Outer)
	return mi, nil
}

// choose is the selection step of the integrated algorithm: it estimates
// every candidate plan's cost from the inputs' measured statistics and
// picks the cheapest one B can hold whose structures are present.
func choose(in Inputs, opts Options, cut outerCut) (Decision, error) {
	mi, err := modelInput(in)
	if err != nil {
		return Decision{}, err
	}
	// The system parameters: B, and the disk backing the inner collection.
	f := in.Inner.File()
	sys := costmodel.System{B: opts.MemoryPages, P: int64(f.PageSize()), Alpha: f.Disk().Alpha()}
	q := costmodel.Query{Lambda: int64(opts.Lambda), Delta: delta}
	dec := Decision{Estimates: costmodel.EstimateAll(mi, sys, q), EstimatedRecall: 1}
	// With sidecars on offer (Plan has validated them), prefiltered HHNL
	// competes too: its estimate discounts the measured page skip and
	// charges the sidecar load.
	if opts.Prefilter != nil {
		dec.Estimates = append(dec.Estimates, costmodel.EstimateHHNLPrefilter(mi, sys, q, measurePrefilter(opts.Prefilter)))
	}
	// With a MinHash sidecar on offer and a recall SLO strictly below 1,
	// the approximate join competes if it promises at least the SLO's
	// recall. SLO 0 (unset) and SLO 1 both keep the planner exact — the
	// SLO is an explicit opt-in to approximation, and no banding shape
	// promises recall 1.
	if opts.LSH != nil && opts.RecallSLO > 0 && opts.RecallSLO < 1 {
		if _, err := activeLSH(in, opts); err != nil {
			return Decision{}, err
		}
		dec.Estimates = append(dec.Estimates, costmodel.EstimateLSH(mi, sys, q, measureLSH(opts.LSH)))
	}
	// A later candidate must win strictly: on a tie the paper's order
	// HHNL, HVNL, VVM stands, and so does the plan with fewer sidecars.
	// When B holds no plan, HHNL stands, for Plan to reject.
	best, found := 0, false
	for i, e := range dec.Estimates {
		alg := Algorithm(e.Algorithm) // costmodel mirrors core's identifiers
		if _, err := planMemory(alg, in, opts, cut); err != nil || e.Algorithm == costmodel.AlgLSH && e.Recall < opts.RecallSLO {
			continue
		}
		if !found || e.Seq < dec.Estimates[best].Seq {
			best, found, dec.Chosen = i, true, alg
		}
	}
	e := dec.Estimates[best]
	dec.Prefiltered, dec.estimate = e.Prefiltered, e.Seq
	if dec.Chosen == LSH {
		dec.EstimatedRecall = e.Recall
	}
	return dec, nil
}

// recordPlan writes the planner's decision on the plan span: the choice
// and every candidate's estimate, so one trace shows estimated next to
// measured cost. No-op on a nil span.
func recordPlan(span *reqtrace.Span, dec Decision) {
	if span == nil {
		return
	}
	span.SetAttr("plan.chosen", dec.Chosen.String())
	span.SetFloat("plan.estimated_cost", dec.estimate)
	span.SetFloat("plan.estimated_recall", dec.EstimatedRecall)
	if dec.Prefiltered {
		span.SetAttr("plan.prefiltered", "true")
	}
	for _, e := range dec.Estimates {
		name := "plan.estimate." + strings.ToLower(e.Algorithm.String())
		if e.Prefiltered {
			name += ".prefilter"
		}
		span.SetFloat(name+".seq", e.Seq)
		span.SetFloat(name+".rand", e.Rand)
	}
}

// CostError is the planner's error on a join the plan ran: the signed
// milli-log2 of measured over estimated cost, so ±1000 is a factor of 2
// either way. ok is false when either cost is not a positive number.
func (d Decision) CostError(measured float64) (milliLog2 int64, ok bool) {
	est := d.estimate
	if math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 || measured <= 0 {
		return 0, false
	}
	return int64(math.Round(math.Log2(measured/est) * 1000)), true
}

// recordPlanAudit writes the estimated-vs-measured comparison on the
// request span once the chosen plan has run: the live counterpart of
// the offline calibration report. No-op on a nil span.
func recordPlanAudit(trace *reqtrace.Span, dec Decision, measured float64) {
	if trace == nil {
		return
	}
	trace.SetFloat("plan.measured_cost", measured)
	if milliLog2, ok := dec.CostError(measured); ok {
		trace.SetFloat("plan.estimated_cost", dec.estimate)
		trace.SetInt("plan.error_log2_milli", milliLog2)
	}
}
