package core

import (
	"fmt"
	"io"

	"textjoin/internal/accum"
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
	if cells := index.Cells(); len(cells) > 0 {
		// Only terms of C1 are cached, and the index is term-sorted.
		cache.Reserve(int(cells[len(cells)-1].Term) + 1)
	}

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
	var ordered, uncached []document.Cell // reusable cached-first ordering scratch
	var scratch []byte                    // stitches the entries that cross a page

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
	rows := &hvnlRows{acc: accum.NewFlat(int(in.Inner.NumDocs())), tk: topk.New(opts.Lambda), scorer: scorer,
		occupancy: tel.Histogram("hvnl.accum.occupancy", telemetry.DefaultSizeBuckets),
		results:   make([]Result, 0, in.Outer.NumDocs())}
	sweep := func() error {
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
					rows.results = append(rows.results, Result{Outer: skippedID, Matches: emptyMatches()})
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
			// term-sorted, so a stable split that asks the cache once per
			// cell needs no sort and no per-document allocation.
			ordered, uncached = ordered[:0], uncached[:0]
			for _, c := range d2.Cells {
				if cache.Contains(c.Term) {
					ordered = append(ordered, c)
				} else {
					uncached = append(uncached, c)
				}
			}
			ordered = append(ordered, uncached...)

			for _, c := range ordered {
				if !index.Contains(c.Term) {
					continue // term does not appear in C1
				}
				entry, ok := cache.Get(c.Term)
				if !ok {
					// An entry's cells are added before the next Put, so the
					// slab of an entry the cache evicted can take this miss.
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
				rows.acc.AddCells(entry.Cells, float64(c.Weight), factor)
				stats.Accumulations += int64(len(entry.Cells))
			}

			if pf != nil && stats.Accumulations == accBefore {
				stats.Prefilter.FalsePasses++
			}
			rows.flush(d2.ID)
			if mem := cache.Used() + btreeBytes + accBytes + outerDocBytes; mem > stats.PeakMemoryBytes {
				stats.PeakMemoryBytes = mem
			}
		}
	}
	probe := trace.StartChild(reqtrace.PhaseProbe, "hvnl.outer-sweep")
	err = sweep()
	probe.End()
	if err != nil {
		return nil, nil, err
	}

	stats.Cache = cache.Stats()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(invFile))
	recordJoinStats(tel, trace, stats)
	return rows.results, stats, nil
}

// hvnlRows turns the sweep's outer documents into result rows. One
// accum.Flat over the inner ids 0..N1-1 and one tracker serve the whole
// join, reused from document to document.
type hvnlRows struct {
	acc       *accum.Flat
	tk        *topk.TopK
	scorer    *document.Scorer
	occupancy *telemetry.Histogram // inner documents each row reached
	results   []Result
}

// flush turns the accumulator into the outer document's row and readies it
// for the next: every inner document the row reached is offered to the
// tracker. A dense row is read in place, in id order, and then Reset; a
// sparse one is drained, in first-touch order.
func (r *hvnlRows) flush(outer uint32) {
	fin, tk := r.scorer.Row(outer), r.tk
	tk.Reset()
	reached := 0
	if r.acc.Dense() {
		for id, v := range r.acc.Row() {
			if v != 0 {
				reached++
				tk.Offer(uint32(id), fin.Finalize(uint32(id), v))
			}
		}
		r.acc.Reset()
	} else {
		sums := r.acc.Drain()
		reached = len(sums)
		for _, sum := range sums {
			tk.Offer(sum.ID, fin.Finalize(sum.ID, sum.V))
		}
	}
	r.occupancy.Observe(int64(reached))
	r.results = append(r.results, Result{Outer: outer, Matches: tk.Results()})
}
