package core

import (
	"fmt"
	"io"
	"slices"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
	"textjoin/internal/topk"
)

// runHVNL evaluates the join with the Horizontal–Vertical Nested Loop of
// Section 4.2: read each document d of C2 in turn and, while d is in
// memory, read the inverted file entries on C1 corresponding to d's terms,
// accumulating similarities between d and every C1 document.
//
// Faithful to the paper:
//
//   - The whole B+tree on C1 is loaded into memory first (one-time cost of
//     Bt1 sequential page reads) and decides for free whether a term of d
//     appears in C1 at all.
//   - Entries fetched for earlier documents are kept in a memory-budgeted
//     cache; the replacement victim is the entry whose term has the lowest
//     document frequency in C2 (Options.CachePolicy selects LRU instead
//     for the ablation benchmark).
//   - When a new document is processed, its terms whose entries are
//     already cached are consumed first.
//   - Only non-zero intermediate similarities are stored; the memory
//     reservation for them is 4·N1·δ bytes, exactly the paper's estimate.
//     The store itself is an accum.Flat — inner ids are contiguous
//     0..N1-1, so each accumulation is one indexed add, and the touched
//     list keeps a sparse row's drain proportional to the non-zero count.
//
// The cache budget realizes the paper's X (number of resident entries):
// B·P bytes minus one outer document (⌈S2⌉ pages), the B+tree (Bt1 pages),
// the accumulator reservation, and the in-memory term list.
//
// Every storage access — the B+tree load, the sequential-preload
// decision, every cache probe, entry fetch and cache insertion — happens
// on the calling goroutine in one order whatever Options.Workers says, so
// page counts, the sequential/random split and the cache/fetch statistics
// do not depend on it. Only the accumulation goes through the hvnlStage.
func runHVNL(in Inputs, opts Options) ([]Result, *Stats, error) {
	if in.Outer == nil || in.InnerInv == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: HVNL needs the outer documents and the inner inverted file", ErrMissingInput)
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	pf, err := activePrefilter(in, opts)
	if err != nil {
		return nil, nil, err
	}

	invFile := in.InnerInv.File()
	track := trackIO(in.Outer.File(), invFile, treeFile(in.InnerInv))
	tel, trace := opts.Telemetry, opts.Trace

	// One-time load of the B+tree into memory.
	setup := trace.StartChild(reqtrace.PhaseSetup, "hvnl.load-index")
	index, err := in.InnerInv.LoadIndex()
	setup.End()
	if err != nil {
		return nil, nil, err
	}
	pageSize := int64(invFile.PageSize())
	btreeBytes := index.SizePages(int(pageSize)) * pageSize

	// Memory budget for the entry cache.
	total := opts.MemoryPages * pageSize
	outerDocBytes := iosim.PagesForBytes(int64(in.Outer.AvgDocBytes()+0.999), int(pageSize)) * pageSize
	accBytes := int64(4 * float64(in.Inner.NumDocs()) * opts.Delta)
	// The in-memory term list costs |t#| = 3 bytes per resident entry;
	// approximate with 3 bytes per N1·δ distinct cached terms folded into
	// the per-entry size below (the paper adds X·|t#|/P to the memory
	// use; we charge 3 bytes on each cached entry instead).
	cacheBudget := total - outerDocBytes - btreeBytes - accBytes
	if cacheBudget <= 0 {
		return nil, nil, fmt.Errorf("%w: B=%d pages leaves no room for inverted entries (doc %d + btree %d + accumulators %d bytes)",
			ErrInsufficientMemory, opts.MemoryPages, outerDocBytes, btreeBytes, accBytes)
	}

	// Outer document frequencies drive the replacement policy. For a
	// selection subset the base collection's statistics are used, as an
	// IR system would ("document frequencies are stored for similarity
	// computation ... no extra effort is needed to get them").
	cache := entrycache.New(cacheBudget, opts.CachePolicy, in.Outer.DF)
	cache.SetTelemetry(tel)

	stats := &Stats{Algorithm: HVNL, InnerDocs: in.Inner.NumDocs()}
	if pf != nil {
		stats.Prefilter.Enabled = true
	}

	// Paper, first regime of hvs: when memory holds all inverted file
	// entries (X ≥ T1), "we can either read in the entire inverted file
	// on C1 in sequential order ... or read in all inverted file entries
	// needed to process the query ... in random order", whichever is
	// cheaper. Preload sequentially when every entry fits and the
	// sequential sweep beats the expected random fetches.
	invStats := in.InnerInv.Stats()
	totalEntryBytes := invStats.Bytes + 3*invStats.Entries
	if totalEntryBytes > 0 && totalEntryBytes <= cacheBudget {
		var neededPages int64
		for _, cell := range index.Cells() {
			if in.Outer.DF(cell.Term) > 0 {
				p, err := in.InnerInv.EntryPages(cell.Term)
				if err != nil {
					return nil, nil, err
				}
				neededPages += p
			}
		}
		seqCost := float64(invStats.I)
		randCost := float64(neededPages) * invFile.Disk().Alpha()
		if seqCost < randCost {
			preload := trace.StartChild(reqtrace.PhaseScan, "hvnl.preload")
			sc := in.InnerInv.Scan()
			for {
				entry, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					preload.End()
					return nil, nil, err
				}
				cache.Put(entry.Term, entry, entry.Bytes()+3)
			}
			preload.End()
			stats.Passes = 1 // one sequential sweep of the inverted file
		}
	}
	var ordered []document.Cell // reusable cached-first ordering scratch
	var scratch []byte          // stitches the entries that cross a page

	// With a prefilter, candidate outer documents whose signature is
	// disjoint from the inner root aggregate are skipped before the
	// probe: their result row is empty by proof, and (with an outer
	// sidecar) their pages are never read.
	var opf *outerPrefilter
	if pf != nil {
		filter := trace.StartChild(reqtrace.PhaseSetup, "hvnl.prefilter")
		opf, err = newOuterPrefilter(in, pf, stats)
		filter.End()
		if err != nil {
			return nil, nil, err
		}
	}

	// Each outer document is fully processed before the next is read, so
	// the reuse path applies: one arena document for the whole sweep.
	sweep := func(stage *hvnlStage) error {
		var outer collection.DocIterator
		if opf == nil {
			outer = in.Outer.Documents()
		}
		for {
			var d2 *document.Document
			var err error
			if opf != nil {
				var skippedID uint32
				var skipped bool
				d2, skippedID, skipped, err = opf.next()
				if err == nil && skipped {
					stats.OuterDocs++
					stage.skip(skippedID)
					continue
				}
			} else {
				d2, err = collection.NextReuse(outer)
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			stats.OuterDocs++
			accBefore := stats.Accumulations

			// Order terms: cached entries first (the paper's reuse
			// optimization), then the rest in term order. Cells are already
			// term-sorted, so a stable two-pass split needs no sort and no
			// per-document allocation.
			ordered = ordered[:0]
			for _, c := range d2.Cells {
				if cache.Contains(c.Term) {
					ordered = append(ordered, c)
				}
			}
			for _, c := range d2.Cells {
				if !cache.Contains(c.Term) {
					ordered = append(ordered, c)
				}
			}

			for _, c := range ordered {
				if !index.Contains(c.Term) {
					continue // term does not appear in C1
				}
				entry, ok := cache.Get(c.Term)
				if !ok {
					entry = cache.Spare()
					if scratch, err = in.InnerInv.FetchEntryInto(c.Term, entry, scratch); err != nil {
						return err
					}
					stats.EntryFetches++
					// Cache charge: packed entry size plus the 3-byte term
					// list slot.
					cache.Put(c.Term, entry, entry.Bytes()+3)
				}
				factor := scorer.TermFactor(c.Term)
				if factor == 0 {
					continue
				}
				stage.add(entry.Cells, float64(c.Weight), factor)
				stats.Accumulations += int64(len(entry.Cells))
			}

			if pf != nil && stats.Accumulations == accBefore {
				stats.Prefilter.FalsePasses++
			}
			stage.flush(d2.ID)
			if mem := cache.Used() + btreeBytes + accBytes + outerDocBytes; mem > stats.PeakMemoryBytes {
				stats.PeakMemoryBytes = mem
			}
		}
	}
	probe := trace.StartChild(reqtrace.PhaseProbe, "hvnl.outer-sweep")
	stage := newHVNLStage(opts, scorer, int(in.Inner.NumDocs()), int(in.Outer.NumDocs()))
	if stage.fan == nil {
		// Inline, an entry's cells are consumed before the next Put, so an
		// evicted entry's slab can take the next miss. Fanned out, queued
		// sub-slices may still alias it (DESIGN §8).
		cache.Recycle()
	}
	err = sweep(stage)
	if stage.fan != nil {
		stage.fan.wait()
	}
	probe.End()
	if err != nil {
		return nil, nil, err
	}
	var merge *reqtrace.Span // stays nil, and its End a no-op, on the inline path
	if stage.fan != nil {
		merge = trace.StartChild(reqtrace.PhaseMerge, "hvnl.merge-trackers")
	}
	results := stage.collect(opts)
	merge.End()

	stats.Cache = cache.Stats()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(invFile))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}

// hvnlShard accumulates one outer document at a time over the inner ids
// [lo, lo+n) in a private accum.Flat. The inline path has one shard
// covering 0..N1-1; the fan-out path gives each worker a contiguous block
// of the dense ids. The accumulator and the tracker are the join's, reused
// from document to document.
type hvnlShard struct {
	lo      uint32
	acc     *accum.Flat
	tk      *topk.TopK
	scorer  *document.Scorer
	rows    [][]Match // the shard's top-λ per flushed outer document, in sweep order
	reached []int     // and how many inner documents each one reached
}

// add accumulates one term's i-cells. w (the outer cell weight) and the
// term factor travel separately, so the shard's sums do not depend on how
// the entry was split (DESIGN §6).
func (s *hvnlShard) add(cells []codec.Cell, w, factor float64) {
	s.acc.AddCells(cells, s.lo, w, factor)
}

// flush finalizes the shard's top-λ for the outer document and readies
// the accumulator for the next: the streamed document is the row, and
// every inner document it reached is offered to the one tracker. A
// candidate below a full tracker's threshold cannot enter it, so it is
// not offered.
func (s *hvnlShard) flush(outer uint32) {
	sums := s.acc.Drain()
	s.reached = append(s.reached, len(sums))
	fin, tk := s.scorer.Row(outer), s.tk
	tk.Reset()
	threshold, full := tk.Threshold()
	for _, sum := range sums {
		d1 := sum.ID + s.lo
		sim := fin.Finalize(d1, sum.V)
		if full && sim < threshold {
			continue
		}
		if tk.Offer(d1, sim) {
			threshold, full = tk.Threshold()
		}
	}
	s.rows = append(s.rows, tk.Results())
}

// hvnlWork is one item on a shard's queue: an accumulation carrying the
// shard-owned sub-slice of a fetched entry's i-cells, or (cells == nil)
// the flush that ends outer document outer. Flushes travel in the queue,
// so the pipeline never needs a per-document barrier.
type hvnlWork struct {
	cells     []codec.Cell
	w, factor float64
	outer     uint32
}

// hvnlStage is HVNL's compute stage. Each shard sees its items in
// coordinator order, so per inner document the additions form the same
// ordered subsequence at every worker count.
type hvnlStage struct {
	shards  []*hvnlShard
	bounds  []uint32          // shard w owns inner ids [bounds[w], bounds[w+1])
	fan     *fanOut[hvnlWork] // nil: the one shard is called inline
	results []Result          // Matches stays nil until collect for flushed rows
	routed  []int64           // per-shard routed-cell counts, kept on the coordinator
}

func newHVNLStage(opts Options, scorer *document.Scorer, n1, n2 int) *hvnlStage {
	n := max(1, opts.Workers)
	s := &hvnlStage{bounds: make([]uint32, n+1), shards: make([]*hvnlShard, n), routed: make([]int64, n), results: make([]Result, 0, n2)}
	for w := range s.bounds {
		s.bounds[w] = uint32(w * n1 / n)
	}
	for w := range s.shards {
		s.shards[w] = &hvnlShard{lo: s.bounds[w], acc: accum.NewFlat(int(s.bounds[w+1] - s.bounds[w])), tk: topk.New(opts.Lambda), scorer: scorer,
			rows: make([][]Match, 0, n2), reached: make([]int, 0, n2)}
	}
	if n > 1 {
		s.fan = startFanOut(n, ownerQueueDepth, func(w int, in <-chan hvnlWork) {
			for item := range in {
				if item.cells != nil {
					s.shards[w].add(item.cells, item.w, item.factor)
				} else {
					s.shards[w].flush(item.outer)
				}
			}
		})
	}
	return s
}

func (s *hvnlStage) add(cells []codec.Cell, w, factor float64) {
	if s.fan == nil {
		s.shards[0].add(cells, w, factor)
		return
	}
	splitByOwner(cells, s.bounds, func(wk int, part []codec.Cell) {
		s.routed[wk] += int64(len(part))
		s.fan.queues[wk] <- hvnlWork{cells: part, w: w, factor: factor}
	})
}

// flush ends one outer document; its row is filled in by collect.
func (s *hvnlStage) flush(outer uint32) {
	s.results = append(s.results, Result{Outer: outer})
	if s.fan == nil {
		s.shards[0].flush(outer)
		return
	}
	for _, q := range s.fan.queues {
		q <- hvnlWork{outer: outer}
	}
}

// skip emits the empty row of a prefiltered outer document.
func (s *hvnlStage) skip(outer uint32) {
	s.results = append(s.results, Result{Outer: outer, Matches: emptyMatches()})
}

// collect fills every flushed row from the shards' per-document top-λ,
// merging them when there are several.
func (s *hvnlStage) collect(opts Options) []Result {
	tel := opts.Telemetry
	occupancy := tel.Histogram("hvnl.accum.occupancy", telemetry.DefaultSizeBuckets)
	parts := make([][]Match, len(s.shards))
	k := 0
	for i := range s.results {
		if s.results[i].Matches != nil {
			continue // skipped by the prefilter: no shard saw it
		}
		reached := 0
		for w, sh := range s.shards {
			parts[w] = sh.rows[k]
			reached += sh.reached[k]
		}
		k++
		occupancy.Observe(int64(reached))
		s.results[i].Matches = parts[0]
		if len(parts) > 1 {
			s.results[i].Matches = topk.Select(opts.Lambda, slices.Concat(parts...))
		}
	}
	if tel != nil && s.fan != nil {
		for w, c := range s.routed {
			tel.Counter(fmt.Sprintf("join.hvnl.worker.%d.routed_cells", w)).Add(c)
		}
	}
	return s.results
}
