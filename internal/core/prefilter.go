package core

import (
	"fmt"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/signature"
)

// Prefilter supplies the signature sidecars HHNL prunes its inner scans
// with.
//
// Inner is required: it must describe Inputs.Inner's current layout
// (build the sidecar after any reordering). Outer is optional and must
// describe the outer base collection; the planner probes the inner page
// aggregates with its root to price the filtered scan, and without it
// prices no skip. Each batch's own signature is computed from its
// decoded documents.
//
// Only HHNL prunes. HVNL's resident B+tree already decides for free
// whether a term appears in C1, so a signature could save it no more
// than an outer document's own pages; HVNL, VVM and LSH run unfiltered
// when offered one. Plan validates an offered prefilter for every family.
//
// Pruning never changes results: a zero AND between signatures proves
// the term sets are disjoint, the pair's similarity is exactly zero,
// and zero similarities are never kept by the λ-trackers. Signatures
// may only skip, never admit.
type Prefilter struct {
	// Inner is the sidecar built over Inputs.Inner.
	Inner *signature.Sidecar
	// Outer is the sidecar built over the outer base collection, or nil.
	Outer *signature.Sidecar
}

// PrefilterStats reports the pruning outcome of one join. Its JSON form
// is textjoind's "prefilter" reply field.
type PrefilterStats struct {
	// Enabled records whether Options.Prefilter was active.
	Enabled bool `json:"-"`
	// PagesSkipped counts inner collection pages the join avoided
	// reading.
	PagesSkipped int64 `json:"pages_skipped"`
	// ClustersSkipped counts whole clusters disqualified by one
	// aggregate AND.
	ClustersSkipped int64 `json:"clusters_skipped"`
	// DocsSkipped counts inner documents never decoded, including those
	// inside skipped clusters.
	DocsSkipped int64 `json:"docs_skipped"`
	// FalsePasses counts documents that passed the filter but produced
	// no overlap — the code's false-positive rate in the data.
	FalsePasses int64 `json:"false_passes"`
}

// activePrefilter validates Options.Prefilter against the inputs and
// returns it, or nil when none is offered. A sidecar that does not match
// its collection is an error: stale signatures could skip real matches.
// Plan calls it for every family, so a join offered a stale sidecar fails
// whether or not it prunes.
func activePrefilter(in Inputs, opts Options) (*Prefilter, error) {
	pf := opts.Prefilter
	if pf == nil {
		return nil, nil
	}
	if pf.Inner == nil {
		return nil, fmt.Errorf("%w: Prefilter needs the inner sidecar", ErrMissingInput)
	}
	if in.Inner != nil && int64(pf.Inner.NumDocs()) != in.Inner.NumDocs() {
		return nil, fmt.Errorf("core: inner sidecar covers %d docs, collection has %d — rebuild the sidecar",
			pf.Inner.NumDocs(), in.Inner.NumDocs())
	}
	if pf.Outer != nil && in.Outer != nil {
		if base := in.Outer.Base(); base != nil && int64(pf.Outer.NumDocs()) != base.NumDocs() {
			return nil, fmt.Errorf("core: outer sidecar covers %d docs, base collection has %d — rebuild the sidecar",
				pf.Outer.NumDocs(), base.NumDocs())
		}
	}
	return pf, nil
}

// sidecarNeed computes the keep vector of a filtered sweep over coll:
// which documents could overlap the query signature q. The hierarchy is
// cluster aggregate first (one AND disqualifies ClusterDocs documents),
// then the spanned page aggregates, then the per-document signature.
// Skip counters accrue into pst; PagesSkipped is the exact page saving
// of scanning only the kept documents.
func sidecarNeed(sc *signature.Sidecar, coll *collection.Collection, q signature.Sig, need []bool, pst *PrefilterStats) ([]bool, error) {
	n := sc.NumDocs()
	if cap(need) < n {
		need = make([]bool, n)
	}
	need = need[:n]
	for cl := 0; cl < sc.NumClusters(); cl++ {
		lo, hi := sc.ClusterRange(cl)
		if !signature.Overlaps(sc.Cluster(cl), q) {
			for id := lo; id < hi; id++ {
				need[id] = false
			}
			pst.ClustersSkipped++
			pst.DocsSkipped += int64(hi - lo)
			continue
		}
		for id := lo; id < hi; id++ {
			live, err := docPagesLive(sc, coll, id, q)
			if err != nil {
				return nil, err
			}
			keep := live && signature.Overlaps(sc.Doc(id), q)
			need[id] = keep
			if !keep {
				pst.DocsSkipped++
			}
		}
	}
	touched, err := touchedPages(coll, need)
	if err != nil {
		return nil, err
	}
	pst.PagesSkipped += coll.File().Pages() - touched
	return need, nil
}

// docPagesLive reports whether any page the document spans has an
// aggregate overlapping q. All pages disqualified proves the document
// disqualified (page aggregates are supersets of their documents).
func docPagesLive(sc *signature.Sidecar, coll *collection.Collection, id uint32, q signature.Sig) (bool, error) {
	first, last, err := docPages(coll, id)
	if err != nil {
		return false, err
	}
	for p := first; p <= last && p < sc.NumPages(); p++ {
		if signature.Overlaps(sc.Page(p), q) {
			return true, nil
		}
	}
	return false, nil
}

// touchedPages counts the distinct pages the kept documents span — the
// pages a filtered sweep actually reads.
func touchedPages(coll *collection.Collection, need []bool) (int64, error) {
	var touched int64
	last := int64(-1)
	for id, keep := range need {
		if !keep {
			continue
		}
		first, lastP, err := docPages(coll, uint32(id))
		if err != nil {
			return 0, err
		}
		if first > last {
			touched += lastP - first + 1
		} else if lastP > last {
			touched += lastP - last
		}
		if lastP > last {
			last = lastP
		}
	}
	return touched, nil
}

// batchSig ORs the signatures of a resident outer batch into one query
// signature for the inner-side tests. The signatures are recomputed
// from the decoded documents (the batch is already in memory, so this
// is CPU-only) under the inner sidecar's configuration — both sides of
// an AND must share one code.
func batchSig(cfg signature.Config, batch []document.Document, q signature.Sig) signature.Sig {
	if len(q) != cfg.Words() {
		q = cfg.New()
	}
	for i := range q {
		q[i] = 0
	}
	for i := range batch {
		q = cfg.FromDoc(q, &batch[i])
	}
	return q
}

// measurePrefilter measures the sidecars' pruning power for the planner.
// All measures are CPU-only over the memory-resident aggregates. The
// inner-scan skip is probed with the outer root aggregate — every HHNL
// batch signature is a subset of it, so the measured skip is a lower
// bound on the skip each batch actually achieves (the plan never
// overstates the saving). Without an outer sidecar the skip terms stay
// zero: the planner then sees only the sidecar-load surcharge and keeps
// the unfiltered plan.
func measurePrefilter(pf *Prefilter) costmodel.Prefilter {
	mp := costmodel.Prefilter{SidecarPages: float64(pf.Inner.Pages())}
	if pf.Outer == nil {
		return mp
	}
	mp.SidecarPages += float64(pf.Outer.Pages())
	skipped, runs := pf.Inner.PageSkip(pf.Outer.Root())
	if np := pf.Inner.NumPages(); np > 0 {
		mp.PageSkip = float64(skipped) / float64(np)
	}
	mp.ScanRuns = float64(runs)
	return mp
}

// docPages returns the first and last page document id spans in its
// collection.
func docPages(c *collection.Collection, id uint32) (first, last int64, err error) {
	ref, err := c.Ref(id)
	if err != nil {
		return 0, 0, err
	}
	ps := int64(c.File().PageSize())
	return ref.Off / ps, (ref.Off + int64(ref.Len) - 1) / ps, nil
}
