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
// The similarity store is one accum.Store per shard for the whole join,
// Reset between passes: a pass starts as the dense range×N1 matrix when it
// fits M, as an open-addressing table otherwise, and the table moves into
// the matrix once it would outgrow it — never a Go map, whose hashing
// dominated the accumulation hot loop.
//
// When Inputs.Outer is a selection subset, only i-cells of its documents
// accumulate — but the inverted files are still scanned in full, the
// paper's point that "the sizes of the inverted files will remain the same
// even if the number of documents ... can be reduced by a selection".
//
// The merge scan is one sequential sweep of each inverted file per pass,
// always on the calling goroutine. Accumulation and the top-λ emission go
// to vvmShards: one covering the pass's whole rank range called inline,
// or, with Options.Workers > 1, one per worker owning a contiguous block
// of the pass's outer-id ranks.
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
	n1 := int(in.Inner.NumDocs())
	nShards := max(1, opts.Workers)
	tel, trace := opts.Telemetry, opts.Trace
	occupancy := tel.Histogram("vvm.accum.occupancy", telemetry.DefaultSizeBuckets)

	// Shard w owns the contiguous rank block [lo, hi) of each pass's
	// (ascending) rangeIDs, and with it the document numbers from its
	// first id up to the next shard's first id. Its store and trackers
	// live for the whole join, with 1/nShards of the pass budget.
	shards := make([]*vvmShard, nShards)
	for w := range shards {
		shards[w] = newVVMShard(n1, plan.passBytes/int64(nShards), opts.Lambda)
	}
	bounds := make([]uint32, nShards+1)

	results := make([]Result, 0, len(plan.outerIDs))
	for p := 0; p < plan.passes; p++ {
		rangeIDs := plan.rangeIDs(p)
		if len(rangeIDs) == 0 {
			continue
		}
		// The pass's rows, in place: rangeIDs ascends, so rank order is
		// emission order.
		passResults := results[len(results) : len(results)+len(rangeIDs)]
		results = results[:len(results)+len(rangeIDs)]
		stats.Passes++
		set := accum.NewIDSet(rangeIDs)
		bounds[nShards] = rangeIDs[len(rangeIDs)-1] + 1
		for w, sh := range shards {
			lo, hi := w*len(rangeIDs)/nShards, (w+1)*len(rangeIDs)/nShards
			bounds[w] = rangeIDs[lo]
			sh.begin(set, lo, rangeIDs[lo:hi], passResults[lo:hi])
		}

		// Inline, the one shard consumes each entry pair before the scan
		// moves on, so the scanners' reuse arenas suffice. Fanned out, the
		// entries (and sub-slices of their cells) cross worker queues and
		// must be stable.
		merge := trace.StartChild(reqtrace.PhaseMerge, "vvm.merge-scan")
		accumulate := func(factor float64, e1 *invfile.Entry, cells []codec.Cell) { shards[0].add(factor, e1, cells) }
		var fan *fanOut[vvmWork]
		if nShards > 1 {
			fan = startFanOut(nShards, ownerQueueDepth, func(w int, in <-chan vvmWork) {
				for tw := range in {
					shards[w].add(tw.factor, tw.e1, tw.cells)
				}
				// Blocks are disjoint slices of passResults, so the emit
				// phase parallelizes too, without locking.
				shards[w].emit(scorer, opts.Lambda)
			})
			accumulate = func(factor float64, e1 *invfile.Entry, cells []codec.Cell) {
				splitByOwner(cells, bounds, func(w int, part []codec.Cell) {
					fan.queues[w] <- vvmWork{factor: factor, e1: e1, cells: part}
				})
			}
		}
		err := mergeScan(in.InnerInv, in.OuterInv, fan == nil, func(term uint32, e1, e2 *invfile.Entry) {
			if factor := scorer.TermFactor(term); factor != 0 {
				accumulate(factor, e1, e2.Cells)
			}
		})
		if fan != nil {
			fan.wait()
		}
		merge.End()
		if err != nil {
			return nil, nil, err
		}

		if fan == nil {
			finalize := trace.StartChild(reqtrace.PhaseFinalize, "vvm.emit-range")
			shards[0].emit(scorer, opts.Lambda)
			finalize.End()
		}
		var memBytes, pairs int64
		for w, sh := range shards {
			stats.Accumulations += sh.count
			memBytes += sh.acc.Bytes()
			pairs += sh.pairs
			if tel != nil && fan != nil {
				tel.Counter(fmt.Sprintf("join.vvm.worker.%d.accumulations", w)).Add(sh.count)
			}
		}
		stats.PeakMemoryBytes = max(stats.PeakMemoryBytes, memBytes)
		occupancy.Observe(pairs)
		if tel != nil {
			// The regime the pass finished in: dense, table or promoted.
			tel.Counter("join.vvm.accum." + shards[0].acc.Kind()).Add(1)
		}
	}

	stats.IO = plan.track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.InnerInv.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}

// vvmShard accumulates and emits one contiguous rank block of each pass's
// outer ids, in its own store. The store and the trackers are the join's;
// the block fields are the current pass's.
type vvmShard struct {
	acc *accum.Store
	tk  *topk.TopK // the dense drain's one tracker
	// rows are the table drain's per-row trackers, grown to the largest
	// block and reused from pass to pass.
	rows []vvmRow

	set    *accum.IDSet
	rankLo int
	ids    []uint32 // the block's outer ids, ascending
	out    []Result // the block's rows of the pass results
	count  int64    // cell products accumulated
	pairs  int64    // non-zero (outer, inner) pairs emit found
}

// vvmRow is one outer document's state in the table drain.
type vvmRow struct {
	live bool // the pass offered this row a pair
	fin  document.Row
	tk   *topk.TopK
}

// newVVMShard returns a shard with its store for the whole join: cols
// inner documents and budget bytes of the pass budget M.
func newVVMShard(cols int, budget int64, lambda int) *vvmShard {
	return &vvmShard{acc: accum.New(0, cols, budget), tk: topk.New(lambda)}
}

// begin readies the shard for a pass's block: ids at ranks rankLo.. of
// set, emitted into out.
func (s *vvmShard) begin(set *accum.IDSet, rankLo int, ids []uint32, out []Result) {
	s.set, s.rankLo, s.ids, s.out = set, rankLo, ids, out
	s.count, s.pairs = 0, 0
	s.acc.Reset(len(ids))
}

// vvmWork is one shard's share of a common-term entry pair: its own
// contiguous sub-slice of the outer entry's i-cells, plus the shared
// (read-only) inner entry.
type vvmWork struct {
	factor float64
	e1     *invfile.Entry
	cells  []codec.Cell
}

// add accumulates every (outer cell, inner cell) product of one term.
// Cells of documents outside the pass's id set are skipped.
func (s *vvmShard) add(factor float64, e1 *invfile.Entry, cells []codec.Cell) {
	for _, c2 := range cells {
		rank, ok := s.set.Rank(c2.Number)
		if !ok {
			continue
		}
		s.acc.AddCells(e1.Cells, rank-s.rankLo, float64(c2.Weight), factor)
		s.count += int64(len(e1.Cells))
	}
}

// emit writes the λ best matches for every outer document of the block,
// including documents with no non-zero similarity (nil Matches). ids is
// ascending, so row order is emission order. A dense store drains row by
// row through the one tracker; a table drains in slot order into a
// tracker per row.
func (s *vvmShard) emit(scorer *document.Scorer, lambda int) {
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
//
// With reuse, entries are yielded from the scanners' arenas and are valid
// only for the duration of fn; a caller whose fn retains entries or
// sub-slices of their cells must pass reuse=false to get stable, freshly
// allocated entries.
func mergeScan(inner, outer *invfile.InvertedFile, reuse bool, fn func(term uint32, e1, e2 *invfile.Entry)) error {
	s1 := inner.Scan()
	s2 := outer.Scan()
	next1, next2 := s1.Next, s2.Next
	if reuse {
		next1, next2 = s1.NextReuse, s2.NextReuse
	}
	e1, err1 := next1()
	e2, err2 := next2()
	for err1 == nil && err2 == nil {
		switch {
		case e1.Term < e2.Term:
			e1, err1 = next1()
		case e1.Term > e2.Term:
			e2, err2 = next2()
		default:
			fn(e1.Term, e1, e2)
			e1, err1 = next1()
			e2, err2 = next2()
		}
	}
	// Drain the longer file so both scans cost their full sequential
	// sweep, as the paper's one-scan cost I1 + I2 assumes. Drained
	// entries are discarded, so the reuse path always applies.
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
