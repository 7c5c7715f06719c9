package core

import (
	"fmt"
	"io"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
	"textjoin/internal/topk"
)

// runVVM evaluates the join with the Vertical–Vertical Merge of Section
// 4.3: scan the inverted files on both collections in parallel (they are
// stored in ascending term-number order, so one scan of each suffices,
// "very much like the merge phase of sort merge") and, whenever two
// entries carry the same term, accumulate u·v into the similarity of every
// document pair the two entries span.
//
// The memory needed for intermediate similarities is proportional to
// N1·N2; following the paper's extension, when the estimated accumulator
// size SM = 4·δ·N1·N2 bytes exceeds the available memory
// M = (B − ⌈J1⌉ − ⌈J2⌉)·P, the outer collection is divided into ⌈SM/M⌉
// ranges and both inverted files are re-scanned once per range.
//
// The similarity store is one accum.Store for the whole join, Reset
// between passes: a pass starts as the dense range×N1 matrix when it fits
// M, as an open-addressing table otherwise, and the table moves into the
// matrix once it would outgrow it — never a Go map, whose hashing
// dominated the accumulation hot loop. The store is told the largest
// pass's rows, so the matrix is allocated once per join.
//
// When Inputs.Outer is a selection subset, only i-cells of its documents
// accumulate — but the inverted files are still scanned in full, the
// paper's point that "the sizes of the inverted files will remain the same
// even if the number of documents ... can be reduced by a selection".
//
// The merge scan is one sequential sweep of each inverted file per pass,
// and the whole join runs on the calling goroutine (DESIGN §8): each entry
// pair is accumulated before the scan moves on, so the scanners' reuse
// arenas suffice.
func runVVM(in Inputs, opts Options) ([]Result, *Stats, error) {
	if in.InnerInv == nil || in.OuterInv == nil || in.Outer == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: VVM needs both inverted files and both collections' statistics", ErrMissingInput)
	}
	if in.Outer.Base() == nil {
		// A memory-resident query batch has no inverted file — the
		// paper's point that "the availability of inverted files means
		// the applicability of certain algorithms".
		return nil, nil, fmt.Errorf("%w: VVM needs a stored outer collection, not a query batch", ErrMissingInput)
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}

	plan, err := vvmPlan(in, opts)
	if err != nil {
		return nil, nil, err
	}
	stats := plan.stats
	tel, trace := opts.Telemetry, opts.Trace
	occupancy := tel.Histogram("vvm.accum.occupancy", telemetry.DefaultSizeBuckets)
	acc := accum.New(0, int(in.Inner.NumDocs()), plan.passBytes)
	acc.Reserve(plan.largest())
	pass := &vvmPass{acc: acc, tk: topk.New(opts.Lambda)}

	results := make([]Result, 0, len(plan.outerIDs))
	for p := 0; p < plan.passes; p++ {
		rangeIDs := plan.rangeIDs(p)
		if len(rangeIDs) == 0 {
			continue
		}
		// The pass's rows, in place: rangeIDs ascends, so rank order is
		// emission order.
		n := len(results)
		results = results[:n+len(rangeIDs)]
		stats.Passes++

		// The merge span covers readying the store: a pass's matrix is
		// zeroed, or first allocated, here.
		merge := trace.StartChild(reqtrace.PhaseMerge, "vvm.merge-scan")
		pass.begin(rangeIDs, results[n:])
		err := mergeScan(in.InnerInv, in.OuterInv, func(term uint32, e1, e2 *invfile.Entry) {
			if factor := scorer.TermFactor(term); factor != 0 {
				pass.add(factor, e1, e2.Cells)
			}
		})
		merge.End()
		if err != nil {
			return nil, nil, err
		}

		finalize := trace.StartChild(reqtrace.PhaseFinalize, "vvm.emit-range")
		pass.emit(scorer, opts.Lambda)
		finalize.End()
		stats.Accumulations += pass.count
		stats.PeakMemoryBytes = max(stats.PeakMemoryBytes, pass.acc.Bytes())
		occupancy.Observe(pass.pairs)
		if tel != nil {
			// The regime the pass finished in: dense, table or promoted.
			tel.Counter("join.vvm.accum." + pass.acc.Kind()).Add(1)
		}
	}

	stats.IO = plan.track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.InnerInv.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}

// vvmPass accumulates and emits one pass's outer ids. The store and the
// trackers are the join's; the remaining fields are the current pass's.
type vvmPass struct {
	acc *accum.Store
	tk  *topk.TopK // the dense drain's one tracker
	// rows are the table drain's per-row trackers, grown to the largest
	// pass and reused from pass to pass.
	rows []vvmRow

	set   *accum.IDSet
	ids   []uint32 // the pass's outer ids, ascending
	out   []Result // the pass's rows of the results
	count int64    // cell products accumulated
	pairs int64    // non-zero (outer, inner) pairs emit found
}

// vvmRow is one outer document's state in the table drain.
type vvmRow struct {
	live bool // the pass offered this row a pair
	fin  document.Row
	tk   *topk.TopK
}

// begin readies the pass over ids, emitted into out.
func (s *vvmPass) begin(ids []uint32, out []Result) {
	s.set, s.ids, s.out = accum.NewIDSet(ids), ids, out
	s.count, s.pairs = 0, 0
	s.acc.Reset(len(ids))
}

// add accumulates every (outer cell, inner cell) product of one term.
// Cells of documents outside the pass's id set are skipped.
func (s *vvmPass) add(factor float64, e1 *invfile.Entry, cells []codec.Cell) {
	for _, c2 := range cells {
		rank, ok := s.set.Rank(c2.Number)
		if !ok {
			continue
		}
		s.acc.AddCells(e1.Cells, rank, float64(c2.Weight), factor)
		s.count += int64(len(e1.Cells))
	}
}

// emit writes the λ best matches for every outer document of the pass,
// including documents with no non-zero similarity (nil Matches). ids is
// ascending, so row order is emission order. A dense store drains row by
// row through the one tracker; a table drains in slot order into a
// tracker per row.
func (s *vvmPass) emit(scorer *document.Scorer, lambda int) {
	if s.acc.Dense() {
		for row, id := range s.ids {
			fin, touched := scorer.Row(id), false
			s.tk.Reset()
			for inner, raw := range s.acc.Row(row) {
				if raw != 0 {
					touched = true
					s.pairs++
					s.tk.Offer(uint32(inner), fin.Finalize(uint32(inner), raw))
				}
			}
			s.out[row] = Result{Outer: id}
			if touched {
				s.out[row].Matches = s.tk.Results()
			}
		}
		return
	}
	for len(s.rows) < len(s.ids) {
		s.rows = append(s.rows, vvmRow{})
	}
	rows := s.rows[:len(s.ids)]
	for i := range rows {
		rows[i].live = false
	}
	s.acc.ForEach(func(row int, inner uint32, raw float64) {
		s.pairs++
		r := &rows[row]
		if !r.live {
			r.live, r.fin = true, scorer.Row(s.ids[row])
			if r.tk == nil {
				r.tk = topk.New(lambda)
			}
			r.tk.Reset()
		}
		r.tk.Offer(inner, r.fin.Finalize(inner, raw))
	})
	for row, id := range s.ids {
		s.out[row] = Result{Outer: id}
		if rows[row].live {
			s.out[row].Matches = rows[row].tk.Results()
		}
	}
}

// vvmPlanned is VVM's partitioning: the outer id list (always ascending — 0..N2-1 for a full
// collection, Subset.IDs order for a selection), the pass count, and the
// per-pass accumulator budget M in bytes.
type vvmPlanned struct {
	outerIDs  []uint32
	passes    int
	passBytes int64
	stats     *Stats
	track     *ioTracker
}

// rangeIDs returns pass p's slice of the outer ids.
func (pl *vvmPlanned) rangeIDs(p int) []uint32 {
	lo := p * len(pl.outerIDs) / pl.passes
	hi := (p + 1) * len(pl.outerIDs) / pl.passes
	return pl.outerIDs[lo:hi]
}

// largest returns the row count of the largest pass, which the store sizes
// its one matrix by. Every pass has ⌊N2/passes⌋ or ⌈N2/passes⌉ rows and the
// last has the ceiling, so the largest pass is always still to come.
func (pl *vvmPlanned) largest() int {
	if pl.passes == 0 {
		return 0
	}
	return len(pl.rangeIDs(pl.passes - 1))
}

// vvmPlan computes the outer id list, pass count, pass memory budget, base
// statistics and I/O tracker.
func vvmPlan(in Inputs, opts Options) (*vvmPlanned, error) {
	// The outer document ids to join: all of C2, or the selection.
	var outerIDs []uint32
	if sub, ok := in.Outer.(*collection.Subset); ok {
		outerIDs = sub.IDs()
	} else {
		n := in.Outer.NumDocs()
		outerIDs = make([]uint32, n)
		for i := range outerIDs {
			outerIDs[i] = uint32(i)
		}
	}

	// Partitioning: ⌈SM/M⌉ ranges of the outer ids.
	pageSize := int64(in.InnerInv.File().PageSize())
	n1 := in.Inner.NumDocs()
	n2 := int64(len(outerIDs))
	smBytes := int64(4 * opts.Delta * float64(n1) * float64(n2))
	j1Pages := iosim.PagesForBytes(int64(in.InnerInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
	j2Pages := iosim.PagesForBytes(int64(in.OuterInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
	mBytes := opts.MemoryPages*pageSize - (j1Pages+j2Pages)*pageSize
	if mBytes <= 0 {
		return nil, fmt.Errorf("%w: B=%d pages cannot hold one inverted entry from each file", ErrInsufficientMemory, opts.MemoryPages)
	}
	// At least one pass, at most one per outer document (none without any).
	passes := int(min(n2, max(1, (smBytes+mBytes-1)/mBytes)))

	stats := &Stats{Algorithm: VVM, InnerDocs: n1, OuterDocs: n2}
	track := trackIO(in.InnerInv.File(), in.OuterInv.File(), treeFile(in.InnerInv), treeFile(in.OuterInv))
	return &vvmPlanned{outerIDs: outerIDs, passes: passes, passBytes: mBytes, stats: stats, track: track}, nil
}

// mergeScan runs one parallel scan over both inverted files, invoking fn
// for every term present in both (e1 from inner/C1, e2 from outer/C2).
// Entries are yielded from the scanners' arenas and are valid only for the
// duration of fn.
func mergeScan(inner, outer *invfile.InvertedFile, fn func(term uint32, e1, e2 *invfile.Entry)) error {
	s1 := inner.Scan()
	s2 := outer.Scan()
	e1, err1 := s1.NextReuse()
	e2, err2 := s2.NextReuse()
	for err1 == nil && err2 == nil {
		switch {
		case e1.Term < e2.Term:
			e1, err1 = s1.NextReuse()
		case e1.Term > e2.Term:
			e2, err2 = s2.NextReuse()
		default:
			fn(e1.Term, e1, e2)
			e1, err1 = s1.NextReuse()
			e2, err2 = s2.NextReuse()
		}
	}
	// Drain the longer file so both scans cost their full sequential
	// sweep, as the paper's one-scan cost I1 + I2 assumes.
	for err1 == nil {
		_, err1 = s1.NextReuse()
	}
	for err2 == nil {
		_, err2 = s2.NextReuse()
	}
	if err1 != io.EOF {
		return err1
	}
	if err2 != io.EOF {
		return err2
	}
	return nil
}
