package reqtrace

// Phase labels used by the join system. The taxonomy is shared across
// algorithms so traces from different joins line up, and it labels the
// per-phase duration histograms textjoin.ObservePhases derives from a
// finished trace:
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
