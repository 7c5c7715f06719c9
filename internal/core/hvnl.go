package core

import (
	"io"
	"slices"

	"textjoin/internal/accum"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/invfile"
	"textjoin/internal/reqtrace"
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
//   - The paper stores only non-zero intermediate similarities, reserving
//     4·N1·δ bytes for them. Here the store is an accum.Flat, one dense
//     row of N1 floats — inner ids are contiguous 0..N1-1, so each
//     accumulation is one indexed add — and the plan charges all of it.
//     A row is finished by one pass of block maxima over it (the dense
//     drain) and a clear, each a fraction of a nanosecond per id.
//   - An entry that covers at least a quarter of C1 is cached as its
//     column of N1 weights in place of its cells (accum.Columnar), built
//     once as it enters the cache and added to the row in one sweep. It is
//     charged as its cells are, so the cache's hits, misses and evictions
//     are the paper's.
//
// The cache budget realizes the paper's X (number of resident entries):
// B·P bytes minus one outer document (⌈S2⌉ pages), the B+tree (Bt1 pages),
// the accumulator reservation, and the in-memory term list (planMemory).
func runHVNL(in Inputs, opts Options, m memory, scorer *document.Scorer, set *Rows) ([]Result, *Stats, error) {
	invFile := in.InnerInv.File()
	track := trackIO(in.Outer.File(), invFile, treeFile(in.InnerInv))
	trace := opts.Trace

	// One-time load of the B+tree into memory.
	setup := trace.StartChild(reqtrace.PhaseSetup, "hvnl.load-index")
	index, err := in.InnerInv.LoadIndex()
	setup.End()
	if err != nil {
		return nil, nil, err
	}
	ws := hvnlStates.Get()
	defer hvnlStates.Put(ws)
	// Outer document frequencies drive the replacement policy. For a
	// selection subset the base collection's statistics are used, as an
	// IR system would ("document frequencies are stored for similarity
	// computation ... no extra effort is needed to get them").
	cache := &ws.cache
	cache.Reset(m.cache, opts.CachePolicy, in.Outer.DF)
	// Only terms of C1 are cached.
	cache.Reserve(int(in.Inner.TermSpan()))

	stats := &Stats{Algorithm: HVNL, InnerDocs: in.Inner.NumDocs()}
	n1 := int(in.Inner.NumDocs())

	// Paper, first regime of hvs: when memory holds all inverted file
	// entries (X ≥ T1), "we can either read in the entire inverted file
	// on C1 in sequential order ... or read in all inverted file entries
	// needed to process the query ... in random order", whichever is
	// cheaper. Preload sequentially when every entry fits and the
	// sequential sweep beats the expected random fetches.
	invStats := in.InnerInv.Stats()
	totalEntryBytes := invStats.Bytes + 3*invStats.Entries
	if totalEntryBytes > 0 && totalEntryBytes <= m.cache {
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
			decoded, err := ws.preload(in.InnerInv, n1)
			preload.End()
			if err != nil {
				return nil, nil, err
			}
			stats.CellsDecoded += decoded
			stats.Passes = 1 // one sequential sweep of the inverted file
		}
	}

	// Each outer document is fully processed before the next is read, so
	// the reuse path applies: one arena document for the whole sweep.
	ws.acc.Resize(n1)
	ws.drain.reset(scorer, in.Inner, n1, opts.Lambda)
	rows := &hvnlRows{acc: &ws.acc, tks: &ws.tks, drain: &ws.drain,
		results: set.reset(int(in.Outer.NumDocs()), opts.Lambda, &ws.tks)}
	var cacheUsed int64
	stored := in.Outer.File() != nil // a query batch decodes nothing
	sweep := func() error {
		outer := ws.outer.Documents(in.Outer)
		for {
			d2, err := outer.NextReuse()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			stats.OuterDocs++
			if stored {
				stats.CellsDecoded += int64(len(d2.Cells))
			}

			// Order terms: cached entries first (the paper's reuse
			// optimization), then the rest in term order. Cells are already
			// term-sorted, so a stable split that asks the cache once per
			// cell needs no sort and no per-document allocation.
			ordered, uncached := ws.ordered[:0], ws.uncached[:0]
			for _, c := range d2.Cells {
				if cache.Contains(c.Term) {
					ordered = append(ordered, c)
				} else {
					uncached = append(uncached, c)
				}
			}
			ordered = append(ordered, uncached...)
			ws.ordered, ws.uncached = ordered, uncached

			for _, c := range ordered {
				if !index.Contains(c.Term) {
					continue // term does not appear in C1
				}
				entry, ok := cache.Get(c.Term)
				if !ok {
					cell, _ := index.Lookup(c.Term)
					if entry, err = ws.fetch(in.InnerInv, c.Term, int(cell.DocFreq), n1); err != nil {
						return err
					}
					stats.EntryFetches++
					stats.CellsDecoded += int64(entry.DocFreq())
					// Cache charge: packed entry size plus the 3-byte term
					// list slot.
					cache.Put(c.Term, entry, entry.Bytes()+3)
				}
				factor := scorer.TermFactor(c.Term)
				if factor == 0 {
					continue
				}
				if entry.Column != nil {
					rows.acc.AddColumn(entry.Column, float64(c.Weight), factor)
				} else {
					rows.acc.AddCells(entry.Cells, float64(c.Weight), factor)
				}
				stats.Accumulations += int64(entry.DocFreq())
			}
			rows.flush(d2.ID)
			cacheUsed = max(cacheUsed, cache.Used())
		}
	}
	probe := trace.StartChild(reqtrace.PhaseProbe, "hvnl.outer-sweep")
	err = sweep()
	probe.End()
	if err != nil {
		return nil, nil, err
	}
	rows.tks.Flush(len(rows.results), func(i int, kept []Match) { rows.results[i].Matches = kept })

	// The outer document, the B+tree, the entries, the accumulator, the
	// slot table and the one tracker.
	pageSize := int64(invFile.PageSize())
	stats.PeakMemoryBytes = m.outerDoc + index.SizePages(int(pageSize))*pageSize + cacheUsed +
		in.Inner.NumDocs()*accumBytes + in.Inner.TermSpan()*slotBytes + int64(opts.Lambda)*matchBytes
	stats.Cache = cache.Stats()
	stats.Pairs = rows.pairs
	stats.TrackerEntries = rows.tks.Entries()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(invFile))
	recordJoinStats(trace, stats)
	return rows.results, stats, nil
}

// hvnlState is HVNL's run state: the accumulator over the inner ids, the
// entry cache with its slot table, heap and cell and column slabs, the
// preload's scanner, the outer iterator, the cached-first ordering, and
// the fetch path's stitch buffer and the cells it decodes a column's entry
// into.
type hvnlState struct {
	acc               accum.Flat
	cache             entrycache.Cache
	scan              invfile.Scanner
	outer             collection.Cursor
	tks               topk.Block
	drain             denseDrain
	ordered, uncached []document.Cell
	scratch           []byte
	cells             invfile.Entry
}

func (s *hvnlState) release() {
	s.cache.Reset(0, entrycache.LRU, nil) // drops the outer side's priority
	s.scan.Reset(nil)
	s.outer.Reset()
	s.tks.Drop()
	s.drain.release()
}

// fetch reads term's entry on a miss, with the document frequency df the
// index counts, into a slab the cache spares: an entry's postings are
// added before the next Put, so the slab of an entry the cache evicted can
// take it. An entry Columnar over the n inner ids is decoded into the
// state's cells and held as its column; any other into a cell slab with
// room for df cells.
func (s *hvnlState) fetch(inv *invfile.InvertedFile, term uint32, df, n int) (*invfile.Entry, error) {
	var err error
	if !accum.Columnar(df, n) {
		e := s.cache.Spare(df)
		s.scratch, err = inv.FetchEntryInto(term, e, s.scratch)
		return e, err
	}
	if s.scratch, err = inv.FetchEntryInto(term, &s.cells, s.scratch); err != nil {
		return nil, err
	}
	return s.column(&s.cells, n), nil
}

// column returns e, a decoded entry, held as its column over ids 0..n-1 in
// a slab the cache spares.
func (s *hvnlState) column(e *invfile.Entry, n int) *invfile.Entry {
	c := s.cache.SpareColumn(n)
	c.HoldColumn(e.Term, accum.FillColumn(c.Column, e.Cells, n), len(e.Cells))
	return c
}

// preload reads the whole inverted file in one sequential sweep into the
// cache, each entry copied from the scanner's arena into a slab of the
// cache's, or held as its column over the n inner ids when Columnar: the
// budget holds every entry, so nothing is evicted. It returns the cells it
// decoded.
func (s *hvnlState) preload(inv *invfile.InvertedFile, n int) (int64, error) {
	sc := &s.scan
	sc.Reset(inv)
	var decoded int64
	for {
		entry, err := sc.NextReuse()
		if err == io.EOF {
			return decoded, nil
		}
		if err != nil {
			return decoded, err
		}
		decoded += int64(len(entry.Cells))
		var e *invfile.Entry
		if accum.Columnar(len(entry.Cells), n) {
			e = s.column(entry, n)
		} else {
			e = s.cache.Spare(len(entry.Cells))
			e.Term, e.Cells = entry.Term, append(e.Cells[:0], entry.Cells...)
		}
		s.cache.Put(e.Term, e, e.Bytes()+3)
	}
}

// hvnlRows turns the sweep's outer documents into result rows. One
// accum.Flat over the inner ids 0..N1-1 serves the whole join, reused
// from document to document; tks holds a tracker per row over the row
// set's slab, which the rows alias when the sweep ends.
type hvnlRows struct {
	acc     *accum.Flat
	tks     *topk.Block
	drain   *denseDrain
	pairs   int64 // inner documents the rows reached, summed
	results []Result
}

// flush turns the accumulator into the outer document's row and readies it
// for the next: the dense drain offers every inner document the row
// reached to the row's tracker, whose slot is the document's rank, and
// the row is Reset.
func (r *hvnlRows) flush(outer uint32) {
	r.pairs += int64(r.drain.offer(r.tks, len(r.results), r.acc.Row()))
	r.acc.Reset()
	r.results = append(r.results, Result{Outer: outer})
}

// denseDrain is the dense drain of a row into one slot of a tracker slab,
// HVNL's and VVM's: every inner document the row reached that can enter
// the slot, whose rank is the outer document's, is offered to it in id
// order. It first takes the row's block maxima — under cosine of
// raw·(1/nᵢ) — and its non-zero count in one pass (accum.BlockMaxima),
// seeds the slot's bar at the λ-th largest maximum, and then tests ids
// one by one only in the blocks whose maximum can reach the bar. That is
// exact (DESIGN §6): λ block maxima are λ distinct ids at or above the
// seed, so no id below it can be among the row's λ best, and a block
// below the bar holds no id that reaches it. Under cosine the seed and
// the block test take drainSlack, which covers the reciprocal's
// rounding, and a pair the block test lets through meets the admission
// rule (document.Limit) and the slot's own test as before.
//
// The drain holds the row's block maxima and the selection's λ floats,
// sized once per join, and under cosine the norm tables and the inner
// reciprocals, which the inner collection builds once.
type denseDrain struct {
	outer, inner []float64 // cosine: norms by outer rank and inner id; else nil
	recip        []float64 // cosine: 1/nᵢ by inner id, 0 for a zero norm
	maxes        []float64 // the block maxima of the row being drained
	top          []float64 // the selection's min-heap of λ maxima
}

// drainSlack is 1−2⁻⁴⁰: the margin a cosine seed and block test give
// away to the rounding of raw·(1/nᵢ) against raw/(o·nᵢ), a few 2⁻⁵³.
const drainSlack = 1 - 0x1p-40

// reset readies the drain for a join's rows of n inner ids into slots
// keeping λ matches, under scorer, whose inner norms are inner's.
// A nil inner leaves the reciprocals to the caller.
func (d *denseDrain) reset(scorer *document.Scorer, inner *collection.Collection, n, lambda int) {
	d.outer, d.inner = scorer.Norms()
	d.recip = nil
	if d.outer != nil && inner != nil {
		d.recip = inner.Reciprocals()
	}
	d.maxes = slices.Grow(d.maxes[:0], accum.MaxBlocks(n))
	d.top = slices.Grow(d.top[:0], lambda)[:lambda]
}

// release drops the norm tables, so an idle run state pins no collection.
func (d *denseDrain) release() { d.outer, d.inner, d.recip = nil, nil, nil }

// offer drains row into slot and returns how many inner documents the row
// reached.
func (d *denseDrain) offer(tks *topk.Block, slot int, row []float64) (reached int) {
	maxes := d.maxes[:accum.MaxBlocks(len(row))]
	var o float64
	var recip []float64
	if d.outer != nil {
		o, recip = d.outer[slot], d.recip[:len(row)]
	}
	reached = accum.BlockMaxima(maxes, row, recip)
	if reached == 0 || d.outer != nil && o == 0 {
		return reached // nothing to offer: a zero outer norm finalizes every pair to 0
	}
	seed := 0.0
	if len(d.top) <= len(maxes) {
		seed = kthLargest(maxes, d.top)
		if d.outer != nil {
			seed = seed / o * drainSlack
		}
	}
	bar := max(seed, tks.Bars()[slot])
	if d.outer == nil {
		for b, m := range maxes {
			if m < bar || m == 0 {
				continue
			}
			lo := b * accum.MaxBlock
			for id, sim := range row[lo:min(lo+accum.MaxBlock, len(row))] {
				if sim >= bar && sim > 0 {
					tks.Offer(slot, uint32(lo+id), sim)
					bar = max(seed, tks.Bars()[slot])
				}
			}
		}
		return reached
	}
	norms := d.inner[:len(row)]
	limit, blockLimit := document.Limit(bar, o), bar*drainSlack*o
	for b, m := range maxes {
		if m < blockLimit || m == 0 {
			continue
		}
		lo := b * accum.MaxBlock
		for id := lo; id < min(lo+accum.MaxBlock, len(row)); id++ {
			raw := row[id]
			if raw == 0 || !document.Admits(raw, limit, norms[id]) {
				continue
			}
			if sim := document.Finalize(raw, o, norms[id]); sim >= bar && sim > 0 {
				tks.Offer(slot, uint32(id), sim)
				bar = max(seed, tks.Bars()[slot])
				limit, blockLimit = document.Limit(bar, o), bar*drainSlack*o
			}
		}
	}
	return reached
}

// kthLargest returns the len(top)-th largest of vals, which must hold at
// least that many, through top as a min-heap of the largest seen.
func kthLargest(vals, top []float64) float64 {
	k := len(top)
	copy(top, vals[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for _, v := range vals[k:] {
		if v > top[0] {
			top[0] = v
			siftDown(top, 0)
		}
	}
	return top[0]
}

// siftDown restores the min-heap order of h below i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
