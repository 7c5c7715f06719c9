package core

import (
	"fmt"
	"math"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/reqtrace"
	"textjoin/internal/stats"
	"textjoin/internal/telemetry"
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

// modelSystem derives the cost-model system parameters from the disk
// backing the inner collection and the memory budget in the options.
func modelSystem(in Inputs, opts Options) costmodel.System {
	opts = opts.withDefaults()
	sys := costmodel.System{B: opts.MemoryPages, P: 4096, Alpha: 5}
	if in.Inner != nil {
		f := in.Inner.File()
		sys.P = int64(f.PageSize())
		sys.Alpha = f.Disk().Alpha()
	}
	return sys
}

// Decision records why the integrated algorithm picked what it picked.
type Decision struct {
	Chosen    Algorithm
	Estimates []costmodel.Estimate
	// Prefiltered marks that the winning plan uses the signature
	// prefilter (only possible when Options.Prefilter was supplied).
	Prefiltered bool
	// EstimatedRecall is the recall the chosen plan promises: exactly 1
	// for the exact algorithms, the banding S-curve estimate when the
	// approximate LSH join won (which requires Options.LSH and a
	// RecallSLO strictly between 0 and 1 that the estimate meets).
	EstimatedRecall float64
}

// Choose runs only the selection step of the integrated algorithm: it
// estimates all three costs from the inputs' measured statistics and
// returns the cheapest runnable algorithm.
func Choose(in Inputs, opts Options) (Decision, error) {
	opts = opts.withDefaults()
	mi, err := modelInput(in)
	if err != nil {
		return Decision{}, err
	}
	sys := modelSystem(in, opts)
	q := costmodel.Query{Lambda: int64(opts.Lambda), Delta: opts.Delta}
	_, ests := costmodel.Choose(mi, sys, q)
	dec := Decision{Estimates: ests}
	// Pick the cheapest algorithm whose structures are actually present:
	// HVNL needs the inner inverted file; VVM needs both inverted files
	// and a stored (not memory-resident) outer collection.
	available := func(a costmodel.Algorithm) bool {
		switch a {
		case costmodel.AlgHVNL:
			return in.InnerInv != nil
		case costmodel.AlgVVM:
			return in.InnerInv != nil && in.OuterInv != nil && in.Outer.Base() != nil
		default:
			return true
		}
	}
	best := costmodel.AlgHHNL
	bestCost := ests[0].Seq
	for _, e := range ests {
		if !available(e.Algorithm) {
			continue
		}
		if e.Seq < bestCost || (e.Algorithm == costmodel.AlgHHNL && e.Seq == bestCost) {
			best = e.Algorithm
			bestCost = e.Seq
		}
	}
	// With sidecars on offer, the prefiltered HHNL/HVNL variants compete
	// too: their estimates discount the measured skip fractions and
	// charge the sidecar load. A strict win is required — on a tie the
	// unfiltered plan (no sidecar dependency) stands.
	pf, err := activePrefilter(in, opts)
	if err != nil {
		return Decision{}, err
	}
	if pf != nil {
		pests := costmodel.EstimateAllPrefilter(mi, sys, q, measurePrefilter(pf))
		dec.Estimates = append(dec.Estimates, pests...)
		for _, e := range pests {
			if !available(e.Algorithm) {
				continue
			}
			if e.Seq < bestCost {
				best = e.Algorithm
				bestCost = e.Seq
				dec.Prefiltered = true
			}
		}
	}
	// With a MinHash sidecar on offer and a recall SLO strictly below 1,
	// the approximate join competes: it must promise at least the SLO's
	// recall AND strictly beat every exact plan's cost. SLO 0 (unset) and
	// SLO 1 both keep the planner exact — the SLO is an explicit opt-in
	// to approximation, and no banding shape promises recall 1.
	dec.EstimatedRecall = 1
	if opts.LSH != nil && opts.RecallSLO > 0 && opts.RecallSLO < 1 {
		if _, err := activeLSH(in, opts); err != nil {
			return Decision{}, err
		}
		lest := costmodel.EstimateLSH(mi, sys, q, measureLSH(opts.LSH))
		dec.Estimates = append(dec.Estimates, lest)
		if lest.Recall >= opts.RecallSLO && lest.Seq < bestCost {
			best = costmodel.AlgLSH
			dec.Prefiltered = false
			dec.EstimatedRecall = lest.Recall
		}
	}
	for a, m := range modelAlgs {
		if m == best {
			dec.Chosen = Algorithm(a)
		}
	}
	return dec, nil
}

// modelAlgs maps each core algorithm id to its costmodel counterpart.
var modelAlgs = [...]costmodel.Algorithm{HHNL: costmodel.AlgHHNL, HVNL: costmodel.AlgHVNL, VVM: costmodel.AlgVVM, LSH: costmodel.AlgLSH}

// recordPlan publishes the planner's decision: the choice and every
// candidate's estimate as attributes of the plan span, so one trace
// shows estimated next to measured cost, and the choice as counters.
func recordPlan(tel *telemetry.Collector, span *reqtrace.Span, dec Decision) {
	if span != nil {
		span.SetAttr("plan.chosen", dec.Chosen.String())
		if est := chosenEstimate(dec); !math.IsNaN(est) {
			span.SetFloat("plan.estimated_cost", est)
		}
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
	if tel != nil {
		tel.Counter("plan.chosen." + strings.ToLower(dec.Chosen.String())).Add(1)
		if dec.Prefiltered {
			tel.Counter("plan.prefilter.on").Add(1)
		}
	}
}

// chosenEstimate returns the estimated cost of the plan the decision
// picked (matching algorithm and prefilter flag), or NaN when the
// estimate list lacks it.
func chosenEstimate(dec Decision) float64 {
	for _, e := range dec.Estimates {
		if e.Algorithm == modelAlgs[dec.Chosen] && e.Prefiltered == dec.Prefiltered {
			return e.Seq
		}
	}
	return math.NaN()
}

// PlanErrorBuckets are the bounds of the "plan.error.log2" histogram:
// signed milli-log2 of measured/estimated cost, so one bucket is a
// fixed multiplicative error band (±1000 ≙ a factor of 2, ±250 ≙
// ~19%). Symmetric around zero because the model can miss both ways.
var PlanErrorBuckets = []int64{-4000, -2000, -1000, -500, -250, -100, 0, 100, 250, 500, 1000, 2000, 4000}

// recordPlanAudit publishes the per-request estimated-vs-measured
// comparison once the chosen plan has run: the live counterpart of the
// offline calibration report. The signed milli-log2 cost error goes to
// the "plan.error.log2" telemetry histogram, and the request span gets
// the measured cost and error as attributes next to the plan span's
// estimates.
func recordPlanAudit(tel *telemetry.Collector, trace *reqtrace.Span, dec Decision, measured float64) {
	trace.SetFloat("plan.measured_cost", measured)
	est := chosenEstimate(dec)
	if math.IsNaN(est) || math.IsInf(est, 0) || est <= 0 || measured <= 0 {
		return
	}
	milliLog2 := int64(math.Round(math.Log2(measured/est) * 1000))
	trace.SetFloat("plan.estimated_cost", est)
	trace.SetInt("plan.error_log2_milli", milliLog2)
	if tel != nil {
		tel.Histogram("plan.error.log2", PlanErrorBuckets).Observe(milliLog2)
	}
}

// JoinIntegrated implements the paper's integrated algorithm: estimate the
// cost of each basic algorithm from the collection statistics, system
// parameters and query parameters, then run the one with the lowest
// estimated cost.
func JoinIntegrated(in Inputs, opts Options) ([]Result, *Stats, Decision, error) {
	tel, trace := opts.Telemetry, opts.Trace
	span := trace.StartChild(reqtrace.PhasePlan, "integrated.choose")
	dec, err := Choose(in, opts)
	if err != nil {
		span.End()
		return nil, nil, dec, err
	}
	recordPlan(tel, span, dec)
	span.End()
	if !dec.Prefiltered {
		// The unfiltered plan won on estimated cost; run it without the
		// filter so the measured cost matches the estimate.
		opts.Prefilter = nil
	}
	results, stats, err := Join(dec.Chosen, in, opts)
	if err == nil {
		recordPlanAudit(tel, trace, dec, stats.Cost)
	}
	return results, stats, dec, err
}
