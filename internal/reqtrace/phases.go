package reqtrace

import "textjoin/internal/telemetry"

// Phase labels used by the join system. The taxonomy is shared across
// algorithms so traces from different joins line up, and it labels the
// derived duration histograms:
//
//	plan     — the integrated planner's choice and its estimates
//	setup    — one-time structure loading (B+tree, index preload decision)
//	scan     — sequential sweeps of stored structures
//	probe    — per-outer-document index probing (HVNL)
//	score    — similarity computation over resident documents (HHNL)
//	flush    — per-document/per-pass accumulator drain into top-λ
//	merge    — merge-scan of inverted files (VVM)
//	finalize — result emission
//
// The serving path adds its own around them: request (every root),
// queue, snapshot, exec (one whole join), io, reply.
const (
	PhasePlan     = "plan"
	PhaseSetup    = "setup"
	PhaseScan     = "scan"
	PhaseProbe    = "probe"
	PhaseScore    = "score"
	PhaseFlush    = "flush"
	PhaseMerge    = "merge"
	PhaseFinalize = "finalize"
)

// ObservePhases derives the aggregate per-phase duration histograms from
// a finished trace: every span's duration is observed once in
// "phase.<phase>.ns". Call it where a trace finishes, so the histograms
// and the tree are one measurement of each interval. No-op on a nil
// collector or nil trace.
func ObservePhases(tel *telemetry.Collector, d *TraceData) {
	if tel == nil || d == nil {
		return
	}
	for i := range d.Spans {
		sp := &d.Spans[i]
		tel.Histogram("phase."+sp.Phase+".ns", telemetry.DefaultLatencyBuckets).Observe(sp.DurNanos)
	}
}
