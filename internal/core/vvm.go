package core

import (
	"io"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/reqtrace"
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
// between passes — never a Go map, whose hashing dominated the
// accumulation hot loop. The plan gives it its dense limit: a pass starts
// as the dense range×N1 matrix when it fits M, or when the largest pass's
// expected pairs, δ̂·rows·N1 with δ̂ measured from the document-frequency
// tables, would promote a table anyway; otherwise it starts as an
// open-addressing table, which moves into the matrix once it would outgrow
// it. The store is told the largest pass's rows, so the matrix is
// allocated once per join.
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
func runVVM(in Inputs, opts Options, m memory) ([]Result, *Stats, error) {
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	// The outer document ids to join, ascending: all of C2, or the
	// selection.
	var outerIDs []uint32
	if sub, ok := in.Outer.(*collection.Subset); ok {
		outerIDs = sub.IDs()
	} else {
		outerIDs = make([]uint32, in.Outer.NumDocs())
		for i := range outerIDs {
			outerIDs[i] = uint32(i)
		}
	}
	n1 := in.Inner.NumDocs()
	stats := &Stats{Algorithm: VVM, InnerDocs: n1, OuterDocs: int64(len(outerIDs))}
	track := trackIO(in.InnerInv.File(), in.OuterInv.File(), treeFile(in.InnerInv), treeFile(in.OuterInv))
	trace := opts.Trace
	acc := accum.New(0, int(n1), m.storeBytes)
	acc.Reserve(m.largest(len(outerIDs)))
	pass := &vvmPass{acc: acc, tk: topk.New(opts.Lambda)}

	results := make([]Result, 0, len(outerIDs))
	var store int64
	for p := 0; p < m.passes; p++ {
		rangeIDs := m.rangeIDs(outerIDs, p)
		if len(rangeIDs) == 0 {
			continue
		}
		// The pass's rows, in place: rangeIDs ascends, so rank order is
		// emission order.
		n := len(results)
		results = results[:n+len(rangeIDs)]
		stats.Passes++

		// The merge span covers readying the store: a pass's matrix is
		// zeroed, or first allocated, here. It records the regime the pass
		// finished in: dense, table or promoted.
		merge := trace.StartChild(reqtrace.PhaseMerge, "vvm.merge-scan")
		pass.begin(rangeIDs, results[n:])
		err := mergeScan(in.InnerInv, in.OuterInv, func(term uint32, e1, e2 *invfile.Entry) {
			if factor := scorer.TermFactor(term); factor != 0 {
				pass.add(factor, e1, e2.Cells)
			}
		})
		merge.SetAttr("vvm.accum", pass.acc.Kind())
		merge.End()
		if err != nil {
			return nil, nil, err
		}

		finalize := trace.StartChild(reqtrace.PhaseFinalize, "vvm.emit-range")
		pass.emit(scorer)
		finalize.End()
		stats.Accumulations += pass.count
		stats.Pairs += pass.pairs
		store = max(store, pass.acc.Bytes())
	}

	// One entry from each file, the store, the dense drain's tracker and
	// the table drain's slab.
	pageSize := int64(in.InnerInv.File().PageSize())
	stats.PeakMemoryBytes = opts.MemoryPages*pageSize - m.passBytes + store +
		int64(opts.Lambda)*matchBytes + int64(len(pass.rows))*trackerBytes(opts.Lambda)
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.InnerInv.File()))
	recordJoinStats(trace, stats)
	return results, stats, nil
}

// vvmPass accumulates and emits one pass's outer ids. The store and the
// trackers are the join's; the remaining fields are the current pass's.
type vvmPass struct {
	acc *accum.Store
	tk  *topk.TopK // the dense drain's one tracker
	// rows and tks are the table drain's per-row state and trackers, made
	// by the first table drain, grown to the largest pass and reused from
	// pass to pass; each pass's result rows take its slab of matches.
	rows []vvmRow
	tks  *topk.Block

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
// row through the one tracker (offerRow); a table drains in slot order into
// a slab with a tracker per row.
func (s *vvmPass) emit(scorer *document.Scorer) {
	if s.acc.Dense() {
		for row, id := range s.ids {
			s.tk.Reset()
			reached := offerRow(s.tk, scorer.Row(id), s.acc.Row(row))
			s.pairs += int64(reached)
			s.out[row] = Result{Outer: id}
			if reached > 0 {
				s.out[row].Matches = s.tk.Results()
			}
		}
		return
	}
	if len(s.rows) < len(s.ids) {
		s.rows = make([]vvmRow, len(s.ids))
	}
	if s.tks == nil {
		s.tks = topk.NewBlock(0, s.tk.K())
	}
	rows := s.rows[:len(s.ids)]
	for i := range rows {
		rows[i].live = false
	}
	s.tks.Reset(len(rows))
	s.acc.ForEach(func(row int, inner uint32, raw float64) {
		s.pairs++
		r := &rows[row]
		if !r.live {
			r.live, r.fin = true, scorer.Row(s.ids[row])
		}
		s.tks.Offer(row, inner, r.fin.Finalize(inner, raw))
	})
	s.tks.Flush(len(rows), func(row int, kept []Match) {
		s.out[row] = Result{Outer: s.ids[row]}
		if rows[row].live {
			s.out[row].Matches = kept
		}
	})
}

// rangeIDs returns pass p's slice of the outer ids.
func (m memory) rangeIDs(ids []uint32, p int) []uint32 {
	return ids[p*len(ids)/m.passes : (p+1)*len(ids)/m.passes]
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
