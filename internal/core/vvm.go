package core

import (
	"io"
	"slices"

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
// arenas suffice. The store, the scanners and the table drain's rows are
// the family's run state (vvmState); the result rows are cut from the
// tracker slab of the caller's row set.
func runVVM(in Inputs, opts Options, m memory, scorer *document.Scorer, rows *Rows) ([]Result, *Stats, error) {
	ws := vvmStates.Get()
	defer vvmStates.Put(ws)
	// The outer document ids to join, ascending: all of C2, numbered in
	// the run state, or the selection.
	var outerIDs []uint32
	if sub, ok := in.Outer.(*collection.Subset); ok {
		outerIDs = sub.IDs()
	} else {
		outerIDs = slices.Grow(ws.ids[:0], int(in.Outer.NumDocs()))[:in.Outer.NumDocs()]
		for i := range outerIDs {
			outerIDs[i] = uint32(i)
		}
		ws.ids = outerIDs
	}
	n1 := in.Inner.NumDocs()
	stats := &Stats{Algorithm: VVM, InnerDocs: n1, OuterDocs: int64(len(outerIDs))}
	track := trackIO(in.InnerInv.File(), in.OuterInv.File(), treeFile(in.InnerInv), treeFile(in.OuterInv))
	trace := opts.Trace
	ws.acc.Restart(0, int(n1), m.storeBytes)
	ws.acc.Reserve(m.largest(len(outerIDs)))
	ws.live = slices.Grow(ws.live[:0], len(outerIDs))[:len(outerIDs)]
	clear(ws.live)
	results := rows.reset(len(outerIDs), opts.Lambda, &ws.tks)[:len(outerIDs)]
	ws.drain.reset(scorer, in.Inner, int(n1), opts.Lambda)
	pass := &vvmPass{vvmState: ws, scorer: scorer, n1: int(n1)}

	// Every pass's rows, in place: outerIDs ascends, so rank order is
	// emission order.
	var store int64
	for p, base := 0, 0; p < m.passes; p++ {
		rangeIDs := m.rangeIDs(outerIDs, p)
		if len(rangeIDs) == 0 {
			continue
		}
		stats.Passes++

		// The merge span covers readying the store: a pass's matrix is
		// zeroed, or first allocated, here. It records the regime the pass
		// finished in: dense, table or promoted.
		merge := trace.StartChild(reqtrace.PhaseMerge, "vvm.merge-scan")
		pass.begin(rangeIDs, base)
		decoded, err := ws.mergeScan(in.InnerInv, in.OuterInv, func(term uint32, e1, e2 *invfile.Entry) {
			if factor := scorer.TermFactor(term); factor != 0 {
				pass.add(factor, e1, e2.Cells)
			}
		})
		stats.CellsDecoded += decoded
		merge.SetAttr("vvm.accum", pass.acc.Kind())
		merge.End()
		if err != nil {
			return nil, nil, err
		}

		finalize := trace.StartChild(reqtrace.PhaseFinalize, "vvm.emit-range")
		pass.emit()
		finalize.End()
		stats.Accumulations += pass.count
		stats.Pairs += pass.pairs
		store = max(store, pass.acc.Bytes())
		base += len(rangeIDs)
	}
	pass.tks.Flush(len(outerIDs), func(i int, kept []Match) {
		results[i] = Result{Outer: outerIDs[i]}
		if ws.live[i] {
			results[i].Matches = kept
		}
	})

	// One entry from each file, the store, the dense drain's tracker and
	// the table drain's slab.
	pageSize := int64(in.InnerInv.File().PageSize())
	stats.PeakMemoryBytes = opts.MemoryPages*pageSize - m.passBytes + store +
		int64(opts.Lambda)*matchBytes + int64(pass.tableRows)*trackerBytes(opts.Lambda)
	stats.TrackerEntries = ws.tks.Entries()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.InnerInv.File()))
	recordJoinStats(trace, stats)
	return results, stats, nil
}

// vvmState is VVM's run state: the store, the two scanners of the merge,
// the pass's id set, the trackers of the outer ranks, the per-row mark of
// a row some inner document reached, the ids of a whole outer collection
// and the column of the inner entry being merged.
type vvmState struct {
	acc          accum.Store
	inner, outer invfile.Scanner
	set          accum.IDSet // the pass's outer ids, rebuilt in place
	// tks holds a tracker per outer rank over the row set's slab, which
	// the result rows alias.
	tks   topk.Block
	drain denseDrain // the dense rows' drain into tks
	live  []bool     // by outer rank: the row reached an inner document
	ids   []uint32   // 0..N2-1, when the outer side is a whole collection
	col   []uint16   // N1 weights: a Columnar inner entry, for a dense pass
}

func (s *vvmState) release() {
	s.inner.Reset(nil)
	s.outer.Reset(nil)
	s.tks.Drop()
	s.drain.release()
}

// vvmPass accumulates and emits one pass's outer ids. The run state is
// the join's; the remaining fields are the current pass's.
type vvmPass struct {
	*vvmState
	scorer    *document.Scorer
	tableRows int // the most rows a table drain took
	n1        int // the inner ids

	ids   []uint32 // the pass's outer ids, ascending
	base  int      // the rank of ids[0]
	count int64    // cell products accumulated
	pairs int64    // non-zero (outer, inner) pairs emit found
}

// begin readies the pass over ids, whose ranks start at base.
func (s *vvmPass) begin(ids []uint32, base int) {
	s.set.Reset(ids)
	s.ids, s.base = ids, base
	s.count, s.pairs = 0, 0
	s.acc.Reset(len(ids))
}

// add accumulates every (outer cell, inner cell) product of one term.
// Cells of documents outside the pass's id set are skipped. While the
// store is the matrix, an inner entry Columnar over the inner ids is
// filled into the state's column once, at the first outer cell of the
// pass, and every outer cell adds the column to its row.
func (s *vvmPass) add(factor float64, e1 *invfile.Entry, cells []codec.Cell) {
	columnar, filled := accum.Columnar(len(e1.Cells), s.n1), false
	for _, c2 := range cells {
		rank, ok := s.set.Rank(c2.Number)
		if !ok {
			continue
		}
		if columnar && s.acc.Dense() {
			if !filled {
				s.col, filled = accum.FillColumn(s.col, e1.Cells, s.n1), true
			}
			s.acc.AddColumn(s.col, rank, float64(c2.Weight), factor)
		} else {
			s.acc.AddCells(e1.Cells, rank, float64(c2.Weight), factor)
		}
		s.count += int64(len(e1.Cells))
	}
}

// emit offers the pass's pairs to the trackers of its outer ranks and
// marks the ranks a pair reached. A dense store drains row by row
// (denseDrain); a table drains in slot order, each pair under cosine through
// the admission rule of its rank's slot (document.Admit).
func (s *vvmPass) emit() {
	if s.acc.Dense() {
		for row := range s.ids {
			reached := s.drain.offer(&s.tks, s.base+row, s.acc.Row(row))
			s.pairs += int64(reached)
			s.live[s.base+row] = reached > 0
		}
		return
	}
	s.tableRows = max(s.tableRows, len(s.ids))
	outer, inner := s.scorer.Norms()
	bars := s.tks.Bars()
	s.acc.ForEach(func(row int, id uint32, sim float64) {
		s.pairs++
		slot := s.base + row
		s.live[slot] = true
		if outer != nil {
			sim = document.Admit(sim, bars[slot], outer[slot], inner[id])
		}
		s.tks.Offer(slot, id, sim)
	})
}

// rangeIDs returns pass p's slice of the outer ids.
func (m memory) rangeIDs(ids []uint32, p int) []uint32 {
	return ids[p*len(ids)/m.passes : (p+1)*len(ids)/m.passes]
}

// mergeScan runs one parallel scan over both inverted files through the
// state's scanners, invoking fn for every term present in both (e1 from
// inner/C1, e2 from outer/C2), and returns the cells it decoded. Entries
// are yielded from the scanners' arenas and are valid only for the
// duration of fn.
func (ws *vvmState) mergeScan(inner, outer *invfile.InvertedFile, fn func(term uint32, e1, e2 *invfile.Entry)) (decoded int64, err error) {
	s1, s2 := &ws.inner, &ws.outer
	s1.Reset(inner)
	s2.Reset(outer)
	next := func(s *invfile.Scanner) (*invfile.Entry, error) {
		e, err := s.NextReuse()
		if err == nil {
			decoded += int64(len(e.Cells))
		}
		return e, err
	}
	e1, err1 := next(s1)
	e2, err2 := next(s2)
	for err1 == nil && err2 == nil {
		switch {
		case e1.Term < e2.Term:
			e1, err1 = next(s1)
		case e1.Term > e2.Term:
			e2, err2 = next(s2)
		default:
			fn(e1.Term, e1, e2)
			e1, err1 = next(s1)
			e2, err2 = next(s2)
		}
	}
	// Drain the longer file so both scans cost their full sequential
	// sweep, as the paper's one-scan cost I1 + I2 assumes.
	for err1 == nil {
		_, err1 = next(s1)
	}
	for err2 == nil {
		_, err2 = next(s2)
	}
	if err1 != io.EOF {
		return decoded, err1
	}
	if err2 != io.EOF {
		return decoded, err2
	}
	return decoded, nil
}
