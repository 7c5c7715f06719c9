package core

import (
	"fmt"
	"io"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/signature"
)

// Prefilter supplies the signature sidecars the joins prune with.
//
// Inner is required: it must describe Inputs.Inner's current layout
// (build the sidecar after any reordering). Outer is optional and must
// describe the outer base collection; when present, HVNL skips
// candidate outer documents before reading them, otherwise outer
// signatures are computed on the fly from each decoded document (a
// CPU-only skip).
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

// PrefilterStats reports the pruning outcome of one join.
type PrefilterStats struct {
	// Enabled records whether Options.Prefilter was active.
	Enabled bool
	// PagesSkipped counts collection pages the join avoided reading.
	PagesSkipped int64
	// ClustersSkipped counts whole clusters disqualified by one
	// aggregate AND.
	ClustersSkipped int64
	// DocsSkipped counts documents never decoded (HHNL inner side) or
	// never probed (HVNL outer side), including those inside skipped
	// clusters.
	DocsSkipped int64
	// FalsePasses counts documents that passed the filter but produced
	// no overlap — the code's false-positive rate in the data.
	FalsePasses int64
}

// activePrefilter validates Options.Prefilter against the inputs and
// returns it, or nil when pruning is off. A sidecar that does not match
// its collection is an error: stale signatures could skip real matches.
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

// emptyMatches is the empty result row a prefilter skip fabricates; it
// matches topk.Results() on an empty tracker (non-nil, zero length) so
// skipped and scored-to-zero rows are byte-identical.
func emptyMatches() []Match { return make([]Match, 0) }

// outerPrefilter drives HVNL's outer sweep under a prefilter: it yields
// either the next kept document or the id of a skipped one (whose
// result row is empty by proof). The storage pattern depends on the
// outer reader:
//
//   - full collection with an outer sidecar: the keep vector is computed
//     up front from the aggregates and a filtered scan reads only the
//     kept documents' pages;
//   - selection subset with an outer sidecar: skipped ids save their
//     random fetches;
//   - anything else: documents are read as usual and tested on the fly
//     (a CPU-only skip of the probe work).
type outerPrefilter struct {
	st   *Stats
	root signature.Sig

	// Full-collection path.
	coll *collection.Collection
	need []bool
	fsc  *collection.FilteredScanner
	pos  int64
	n    int64

	// Subset path.
	sub  *collection.Subset
	base *collection.Collection
	ids  []uint32
	keep []bool

	// On-the-fly path.
	plain collection.DocIterator
	cfg   signature.Config
	sig   signature.Sig
}

// newOuterPrefilter builds the sweep driver; st accrues the skip
// counters as the keep decisions are made.
func newOuterPrefilter(in Inputs, pf *Prefilter, st *Stats) (*outerPrefilter, error) {
	o := &outerPrefilter{st: st, root: pf.Inner.Root()}
	if pf.Outer != nil {
		switch r := in.Outer.(type) {
		case *collection.Collection:
			o.coll = r
			o.n = r.NumDocs()
			need, err := sidecarNeed(pf.Outer, r, o.root, nil, &st.Prefilter)
			if err != nil {
				return nil, err
			}
			o.need = need
			o.fsc = r.ScanFiltered(func(id uint32) bool { return need[id] })
			return o, nil
		case *collection.Subset:
			o.sub = r
			o.base = r.Base()
			o.ids = r.IDs()
			o.keep = make([]bool, len(o.ids))
			for i, id := range o.ids {
				keep := signature.Overlaps(pf.Outer.Cluster(pf.Outer.ClusterOf(id)), o.root) &&
					signature.Overlaps(pf.Outer.Doc(id), o.root)
				o.keep[i] = keep
				if !keep {
					st.Prefilter.DocsSkipped++
					// A skipped random fetch saves every page the document spans.
					first, last, err := docPages(o.base, id)
					if err != nil {
						return nil, err
					}
					st.Prefilter.PagesSkipped += last - first + 1
				}
			}
			return o, nil
		}
	}
	// No usable outer sidecar: read and test on the fly.
	o.plain = in.Outer.Documents()
	o.cfg = pf.Inner.Config()
	o.sig = o.cfg.New()
	return o, nil
}

// measurePrefilter measures the sidecars' pruning power for the planner.
// All measures are CPU-only over the memory-resident aggregates. The
// inner-scan skip is probed with the outer root aggregate — every HHNL
// batch signature is a subset of it, so the measured skip is a lower
// bound on the skip each batch actually achieves (the plan never
// overstates the saving). Without an outer sidecar the skip terms stay
// zero: the planner then sees only the sidecar-load surcharge and keeps
// the unfiltered plan, matching the on-the-fly path's CPU-only savings.
func measurePrefilter(pf *Prefilter) costmodel.Prefilter {
	mp := costmodel.Prefilter{SidecarPages: float64(pf.Inner.Pages())}
	if pf.Outer == nil {
		return mp
	}
	mp.SidecarPages += float64(pf.Outer.Pages())
	innerRoot := pf.Inner.Root()
	outerRoot := pf.Outer.Root()
	skipped, runs := pf.Inner.PageSkip(outerRoot)
	if np := pf.Inner.NumPages(); np > 0 {
		mp.PageSkip = float64(skipped) / float64(np)
	}
	mp.ScanRuns = float64(runs)
	if n := pf.Outer.NumDocs(); n > 0 {
		mp.DocSkip = float64(pf.Outer.DocSkip(innerRoot)) / float64(n)
	}
	_, outerRuns := pf.Outer.PageSkip(innerRoot)
	mp.OuterRuns = float64(outerRuns)
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

// next yields the next outer document (skipped == false) or the id of a
// skipped one (skipped == true, d == nil). io.EOF ends the sweep. Kept
// documents follow the reuse contract of collection.NextReuse.
func (o *outerPrefilter) next() (d *document.Document, skippedID uint32, skipped bool, err error) {
	switch {
	case o.coll != nil:
		if o.pos >= o.n {
			return nil, 0, false, io.EOF
		}
		id := uint32(o.pos)
		o.pos++
		if !o.need[id] {
			return nil, id, true, nil
		}
		d, err := o.fsc.NextReuse()
		return d, 0, false, err
	case o.sub != nil:
		if o.pos >= int64(len(o.ids)) {
			return nil, 0, false, io.EOF
		}
		i := o.pos
		o.pos++
		id := o.ids[i]
		if !o.keep[i] {
			return nil, id, true, nil
		}
		// Mirror the subset iterator: one random fetch per document.
		d, err := o.base.Fetch(id)
		if err != nil {
			return nil, 0, false, err
		}
		o.base.File().ParkHead()
		return d, 0, false, nil
	default:
		d, err := collection.NextReuse(o.plain)
		if err != nil {
			return nil, 0, false, err
		}
		for i := range o.sig {
			o.sig[i] = 0
		}
		o.sig = o.cfg.FromDoc(o.sig, d)
		if !signature.Overlaps(o.sig, o.root) {
			o.st.Prefilter.DocsSkipped++
			return nil, d.ID, true, nil
		}
		return d, 0, false, nil
	}
}
