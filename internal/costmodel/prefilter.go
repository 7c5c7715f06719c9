package costmodel

import "math"

// Prefilter carries the measured pruning power of signature sidecars,
// feeding the prefiltered plan estimates. The skip fractions and run
// counts are measured against the sidecars at plan time (the signatures
// are memory-resident, so measuring is CPU-only); the planner then
// weighs the saved page reads against the one-time sidecar load and the
// seek surcharge of a gappy scan.
type Prefilter struct {
	// SidecarPages is the one-time sequential cost of loading the
	// sidecar file(s).
	SidecarPages float64
	// PageSkip is the fraction of C1 data pages an HHNL inner scan
	// skips under the query signature.
	PageSkip float64
	// ScanRuns is the number of retained contiguous page runs per
	// filtered inner scan: resuming after each gap costs one random
	// read.
	ScanRuns float64
}

// filteredScanCost prices one sequential sweep of `pages` pages when a
// skipFrac fraction is never read and the kept pages form `runs`
// contiguous runs, each resuming with one random read.
func filteredScanCost(pages, skipFrac, runs float64, sys System) float64 {
	kept := pages * (1 - skipFrac)
	if kept <= 0 {
		return 0
	}
	cost := kept + runs*(sys.Alpha-1)
	// Pruning can only remove reads; a gap-heavy layout must never be
	// priced above the plain sweep it replaces.
	return math.Min(cost, pages)
}

// EstimateHHNLPrefilter is the prefiltered plan variant: hhs with the
// inner scans priced under the page skip fraction, plus the sidecar load,
// and hhr adds HHNLRand's contention surcharge to it. Only HHNL has one:
// VVM's merge already touches only co-occurring terms, and HVNL's resident
// B+tree already skips every term a signature could rule out.
func EstimateHHNLPrefilter(in Input, sys System, q Query, pf Prefilter) Estimate {
	e := Estimate{Algorithm: AlgHHNL, Seq: Infeasible, Rand: Infeasible, Prefiltered: true}
	in = in.normalize()
	x := HHNLBatch(in, sys, q)
	if x <= 0 {
		return e
	}
	scans := math.Ceil(float64(in.C2.N) / x)
	if in.C2.N == 0 {
		scans = 0
	}
	inner := filteredScanCost(in.C1.D(sys), pf.PageSkip, pf.ScanRuns, sys)
	e.Seq = in.c2ReadCost(sys) + scans*inner + pf.SidecarPages
	e.Rand = e.Seq + (HHNLRand(in, sys, q) - HHNLSeq(in, sys, q))
	return e
}
