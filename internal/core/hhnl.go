package core

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/signature"
	"textjoin/internal/topk"
)

// runHHNL evaluates the join with the Horizontal–Horizontal Nested Loop
// of Section 4.1: read the next X documents of C2 into memory, scan C1,
// and while a C1 document is in memory compute its similarity with every
// resident C2 document, tracking the λ largest similarities per C2
// document.
//
// The batch size X follows the paper's memory policy "letting the outer
// collection use as much memory space as possible":
//
//	X = (B − ⌈S1⌉) / (S2 + 4λ/P)
//
// realized in exact bytes: ⌈S1⌉ pages are reserved to hold one inner
// document, and each outer document charges its packed size plus 4λ bytes
// for its similarity slots. The resident batch is held regrouped by term
// (residentBlock): the same cells in another order, a slot number and a
// weight per cell and a directory entry per distinct term in place of a
// header per document. It is charged to the same B by that same rule, so X,
// the passes and the page reads are what the paper's formula says.
//
// The paper prices the similarity computation at nothing; here it is the
// whole CPU cost, so "compute its similarity with every resident C2
// document" is one walk of the C1 document's cells past the block's
// postings into an accumulator (residentBlock.accumulate), not X merge
// walks. The whole join runs on the calling goroutine.
//
// With Options.Backward the loop order flips (an extension the paper
// defers to the technical report): blocks of C1 are held in memory while
// C2 is scanned once per block, with all C2 trackers kept across blocks.
//
// With Options.Prefilter the inner scan of each batch skips clusters,
// pages and documents whose aggregate signatures are disjoint from the
// batch's OR-signature — a provably zero similarity for every resident
// outer document, so results are byte-identical. The backward variant
// ignores the prefilter (its resident side is the inner collection).
func runHHNL(in Inputs, opts Options) ([]Result, *Stats, error) {
	if in.Outer == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: HHNL needs both document collections", ErrMissingInput)
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.Backward {
		return hhnlBackward(in, opts, scorer)
	}
	b := blockJoin{in: in, opts: opts, scorer: scorer, scanName: "hhnl.inner-scan",
		stats: &Stats{Algorithm: HHNL, InnerDocs: in.Inner.NumDocs()}}
	pf, err := activePrefilter(in, opts)
	if err != nil {
		return nil, nil, err
	}
	if pf != nil {
		// Disqualify inner clusters, pages and documents against the
		// batch's OR-signature before each scan.
		b.stats.Prefilter.Enabled = true
		cfg := pf.Inner.Config()
		var q signature.Sig
		var need []bool
		b.prepName = "hhnl.prefilter"
		b.prepare = func(batch []document.Document) ([]bool, [][]int32, error) {
			q = batchSig(cfg, batch, q)
			var err error
			need, err = sidecarNeed(pf.Inner, in.Inner, q, need, &b.stats.Prefilter)
			return need, nil, err
		}
	}
	return b.run()
}

// streamReserve is the whole pages (at least one) set aside for the one
// resident document of the streamed side.
func streamReserve(avgDocBytes float64, pageSize int64) int64 {
	return max(pageSize, iosim.PagesForBytes(int64(avgDocBytes+0.999), int(pageSize))*pageSize)
}

// batchFiller cuts a document stream into memory-budgeted resident
// batches, carrying the document that overflowed one batch into the next.
// Each document charges its packed size plus overhead bytes. The batches
// live in one cell arena reused from batch to batch, so next may yield
// reuse-path documents: each is copied before the following call.
type batchFiller struct {
	next     func() (*document.Document, error)
	budget   int64
	overhead int64
	side     string // "outer" or "inner", for the oversized-document error
	pending  *document.Document
	done     bool
	docs     []document.Document
	cells    []document.Cell
}

// batchSlack pads a buffer sized from one full batch, measured or
// expected: batches are cut by bytes, so their document and cell counts
// differ by a few percent, and a sixteenth more makes a regrow rare.
func batchSlack(n int) int { return n + n/16 + 1 }

// newBatchFiller sizes the arena for a full batch of average documents of
// a stream of n documents of avgBytes packed bytes each.
func newBatchFiller(next func() (*document.Document, error), budget, overhead int64, side string, n int64, avgBytes float64) *batchFiller {
	docs := min(float64(n), float64(budget)/(avgBytes+float64(overhead)))
	cells := docs * (avgBytes - codec.DocHeaderSize) / codec.CellSize
	return &batchFiller{next: next, budget: budget, overhead: overhead, side: side,
		docs:  make([]document.Document, 0, batchSlack(int(docs))),
		cells: make([]document.Cell, 0, batchSlack(int(cells)))}
}

// fill returns the next batch and the bytes it charges; an empty batch
// means the stream is exhausted. The batch is valid until the next fill.
func (f *batchFiller) fill() (batch []document.Document, used int64, err error) {
	f.docs, f.cells = f.docs[:0], f.cells[:0]
	for !f.done {
		d := f.pending
		f.pending = nil
		if d == nil {
			if d, err = f.next(); err == io.EOF {
				f.done = true
				break
			} else if err != nil {
				return nil, 0, err
			}
		}
		cost := d.EncodedSize() + f.overhead
		if used+cost > f.budget {
			if len(f.docs) > 0 {
				f.pending = d
				break
			}
			return nil, 0, fmt.Errorf("%w: %s document %d (%d bytes) exceeds the batch budget %d",
				ErrInsufficientMemory, f.side, d.ID, cost, f.budget)
		}
		start := len(f.cells)
		f.cells = append(f.cells, d.Cells...)
		f.docs = append(f.docs, document.Document{ID: d.ID, Cells: f.cells[start:len(f.cells):len(f.cells)]})
		used += cost
	}
	return f.docs, used, nil
}

// blockJoin is the block skeleton forward HHNL and LSH share: fill a
// resident outer batch → prepare it (the prefilter's keep vector, or the
// LSH candidate lists) → regroup it by term → stream the inner documents
// the preparation kept through the scoring stage → flush the batch's rows.
type blockJoin struct {
	in     Inputs
	opts   Options
	scorer *document.Scorer
	stats  *Stats
	// prepare, when non-nil, runs once per batch: keep marks the inner
	// documents the scan reads (nil: all of them — the filtered scan never
	// reads a page without a kept document), lists maps an inner id to the
	// resident slots it scores against (nil: every slot).
	prepare            func(batch []document.Document) (keep []bool, lists [][]int32, err error)
	prepName, scanName string
}

func (b *blockJoin) run() ([]Result, *Stats, error) {
	in, opts, stats := b.in, b.opts, b.stats
	// ⌈S1⌉ pages hold the streamed inner document; the rest is the outer
	// batch's, each document charging 4λ bytes for its similarity slots.
	pageSize := int64(in.Inner.File().PageSize())
	reserve := streamReserve(in.Inner.AvgDocBytes(), pageSize)
	budget := opts.MemoryPages*pageSize - reserve
	if budget <= 0 {
		return nil, nil, fmt.Errorf("%w: B=%d pages cannot hold one inner document (%d bytes reserved)",
			ErrInsufficientMemory, opts.MemoryPages, reserve)
	}
	tel, trace := opts.Telemetry, opts.Trace
	name := strings.ToLower(stats.Algorithm.String())
	fillName, invertName, flushName := name+".fill-batch", name+".invert-batch", name+".flush-batch"
	track := trackIO(in.Outer.File(), in.Inner.File())
	outer := in.Outer.Documents()
	filler := newBatchFiller(func() (*document.Document, error) { return collection.NextReuse(outer) },
		budget, 4*int64(opts.Lambda), "outer", in.Outer.NumDocs(), in.Outer.AvgDocBytes())
	// The block, its accumulator and the stage's trackers are built once and
	// reused by every batch.
	var block residentBlock
	st := &blockStage{scorer: b.scorer, block: &block}

	results := make([]Result, 0, in.Outer.NumDocs())
	for {
		fill := trace.StartChild(reqtrace.PhaseScan, fillName)
		batch, used, err := filler.fill()
		fill.End()
		if err != nil {
			return nil, nil, err
		}
		if len(batch) == 0 {
			break
		}
		stats.Passes++
		stats.OuterDocs += int64(len(batch))
		stats.PeakMemoryBytes = max(stats.PeakMemoryBytes, used)

		var keep []bool
		var lists [][]int32
		if b.prepare != nil {
			prep := trace.StartChild(reqtrace.PhaseScan, b.prepName)
			keep, lists, err = b.prepare(batch)
			prep.End()
			if err != nil {
				return nil, nil, err
			}
		}
		invert := trace.StartChild(reqtrace.PhaseScan, invertName)
		block.regroup(batch)
		st.begin(lists, opts.Lambda)
		invert.End()

		// One scan of the (kept) inner documents per batch. Each is scored
		// before the next is read, so the scan's reuse arena suffices — the
		// hot loop allocates nothing.
		var scan collection.ReuseIterator = in.Inner.Scan()
		if keep != nil {
			scan = in.Inner.ScanFiltered(func(id uint32) bool { return keep[id] })
		}
		score := trace.StartChild(reqtrace.PhaseScore, b.scanName)
		for {
			var d1 *document.Document
			if d1, err = scan.NextReuse(); err != nil {
				break
			}
			st.score(d1)
		}
		score.End()
		if err != io.EOF {
			return nil, nil, err
		}
		stats.Comparisons += st.comparisons
		if stats.Prefilter.Enabled {
			stats.Prefilter.FalsePasses += st.falsePasses
		}

		flush := trace.StartChild(reqtrace.PhaseFlush, flushName)
		for i := range batch {
			results = append(results, Result{Outer: batch[i].ID, Matches: st.trackers[i].Results()})
		}
		flush.End()
	}
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}

// residentBlock is a resident batch regrouped by term: the batch's own
// d-cells in another order — for each distinct term the i-cell (Number is
// the slot) of every resident document containing it, ascending by slot —
// so that one streamed document is scored against the whole batch by
// walking its cells past the postings (the paper's HVNL idea, Section 4.2,
// applied to the block HHNL already holds). It is rebuilt for every batch
// into the same buffers; between two regroups only acc changes.
type residentBlock struct {
	ids []uint32 // slot → document id
	// dir is indexed by term number: 0 for a term the batch lacks, 1+e for
	// entry e, whose term is terms[e]. Only the batch's own terms are
	// non-zero, so the next regroup clears it through terms.
	dir   []int32
	terms []uint32
	offs  []int32 // entry e's postings are post[offs[e]:offs[e+1]]
	post  []codec.Cell
	acc   *accum.Flat // over the slots: the streamed document being scored
}

// regroup is a counting sort of the batch's cells by term. The first pass
// counts each term's cells (held negated in dir) and lists the terms in
// first-seen order; numbering them in that order makes entry e's postings
// start where entry e-1's end; the second pass places the cells. Cells are
// visited in slot order, so each term's postings ascend by slot.
func (b *residentBlock) regroup(batch []document.Document) {
	for _, t := range b.terms {
		b.dir[t] = 0
	}
	if b.acc == nil || cap(b.ids) < len(batch) {
		b.ids = make([]uint32, 0, batchSlack(len(batch)))
		b.acc = accum.NewFlat(cap(b.ids))
	}
	b.ids = b.ids[:0]
	cells, top := 0, -1
	for i := range batch {
		b.ids = append(b.ids, batch[i].ID)
		if n := len(batch[i].Cells); n > 0 {
			cells += n
			top = max(top, int(batch[i].Cells[n-1].Term)) // cells ascend by term
		}
	}
	if top >= len(b.dir) {
		b.dir = make([]int32, batchSlack(top+1))
	}
	dir, terms := b.dir, b.terms[:0]
	for i := range batch {
		for _, c := range batch[i].Cells {
			if dir[c.Term] == 0 {
				terms = append(terms, c.Term)
			}
			dir[c.Term]--
		}
	}
	// offs[e+1] is entry e's cursor: its start once the entry is numbered,
	// its end — the start of entry e+1 — once its cells are placed.
	offs := append(slices.Grow(b.offs[:0], len(terms)+1), 0)
	next := int32(0)
	for e, t := range terms {
		offs = append(offs, next)
		next -= dir[t]
		dir[t] = int32(e) + 1
	}
	if cap(b.post) < cells {
		b.post = make([]codec.Cell, batchSlack(cells)) // the first batch is a full one
	}
	post := b.post[:cells]
	for i := range batch {
		for _, c := range batch[i].Cells {
			k := dir[c.Term]
			post[offs[k]] = codec.Cell{Number: uint32(i), Weight: c.Weight}
			offs[k]++
		}
	}
	b.terms, b.offs, b.post = terms, offs, post
}

// accumulate streams d's cells past the block's postings into acc: per slot
// the products arrive in d's ascending term order (DESIGN §6). A term
// beyond the directory is one no resident document holds.
func (b *residentBlock) accumulate(scorer *document.Scorer, d *document.Document) {
	dir, offs, post := b.dir, b.offs, b.post
	for _, c := range d.Cells {
		if int(c.Term) >= len(dir) {
			break // so is every later one: cells ascend by term
		}
		if k := dir[c.Term]; k != 0 {
			b.acc.AddCells(post[offs[k-1]:offs[k]], float64(c.Weight), scorer.TermFactor(c.Term))
		}
	}
}

// blockStage is the scoring stage of the block skeleton: it scores inner
// documents against the resident block, the resident slot being the row.
type blockStage struct {
	scorer *document.Scorer
	block  *residentBlock
	lists  [][]int32 // inner id → slots to score, ascending; nil: every slot
	// trackers[:len(block.ids)] are the batch's; the set grows to the
	// largest batch and is reset, not rebuilt, from batch to batch.
	trackers []*topk.TopK

	comparisons int64 // pairs the scan stands for: slots (or listed slots) per document
	falsePasses int64 // documents that scored zero against every slot
}

// begin readies the stage for the batch the block now holds.
func (s *blockStage) begin(lists [][]int32, lambda int) {
	s.lists, s.comparisons, s.falsePasses = lists, 0, 0
	for len(s.trackers) < len(s.block.ids) {
		s.trackers = append(s.trackers, topk.New(lambda))
	}
	for _, tk := range s.trackers[:len(s.block.ids)] {
		tk.Reset()
	}
}

// score offers d1 to the tracker of every slot it reached — of every
// listed slot it reached, under slot lists. A slot it did not reach has
// similarity zero, which no tracker keeps. A dense row is read in place,
// in slot order, and then Reset; a sparse one is drained.
func (s *blockStage) score(d1 *document.Document) {
	s.block.accumulate(s.scorer, d1)
	ids, acc, scorer, inner := s.block.ids, s.block.acc, s.scorer, d1.ID
	anyHit, compared := false, len(ids)
	switch {
	case s.lists != nil:
		slots := s.lists[inner]
		for _, slot := range slots {
			if sim := scorer.Finalize(ids[slot], inner, acc.Take(uint32(slot))); sim != 0 {
				anyHit = true
				s.trackers[slot].Offer(inner, sim)
			}
		}
		acc.Reset()
		compared = len(slots)
	case acc.Dense():
		trackers := s.trackers[:len(ids)]
		for slot, raw := range acc.Row()[:len(ids)] {
			if raw == 0 {
				continue
			}
			if sim := scorer.Finalize(ids[slot], inner, raw); sim != 0 {
				anyHit = true
				trackers[slot].Offer(inner, sim)
			}
		}
		acc.Reset()
	default:
		for _, sum := range acc.Drain() {
			if sim := scorer.Finalize(ids[sum.ID], inner, sum.V); sim != 0 {
				anyHit = true
				s.trackers[sum.ID].Offer(inner, sim)
			}
		}
	}
	s.comparisons += int64(compared)
	if !anyHit {
		s.falsePasses++
	}
}

func hhnlBackward(in Inputs, opts Options, scorer *document.Scorer) ([]Result, *Stats, error) {
	stats := &Stats{Algorithm: HHNL, InnerDocs: in.Inner.NumDocs()}
	// Swap roles for batch sizing: blocks of C1 are resident, one C2
	// document at a time streams past, and every C2 document keeps a λ
	// tracker alive for the whole join.
	pageSize := int64(in.Inner.File().PageSize())
	trackerBytes := 4 * int64(opts.Lambda) * in.Outer.NumDocs()
	budget := opts.MemoryPages*pageSize - streamReserve(in.Outer.AvgDocBytes(), pageSize) - trackerBytes
	if budget <= 0 {
		return nil, nil, fmt.Errorf("%w: B=%d pages cannot hold the %d outer trackers plus one outer document",
			ErrInsufficientMemory, opts.MemoryPages, in.Outer.NumDocs())
	}
	track := trackIO(in.Outer.File(), in.Inner.File())
	tel, trace := opts.Telemetry, opts.Trace

	// Every pass streams the outer side in the same Documents() order, so a
	// document's position in the stream names its result row and tracker;
	// the first pass creates both.
	results := make([]Result, 0, in.Outer.NumDocs())
	trackers := make([]*topk.TopK, 0, in.Outer.NumDocs())
	filler := newBatchFiller(in.Inner.Scan().NextReuse, budget, 0, "inner", in.Inner.NumDocs(), in.Inner.AvgDocBytes())
	// The same kernel with the roles swapped: the inner block is resident
	// and regrouped, each outer document streams past it.
	var block residentBlock
	for firstPass := true; ; firstPass = false {
		fill := trace.StartChild(reqtrace.PhaseScan, "hhnl.backward.fill-batch")
		batch, used, err := filler.fill()
		fill.End()
		if err != nil {
			return nil, nil, err
		}
		// An empty inner collection still gets its one outer sweep: every
		// outer document yields a result row, with no matches.
		if len(batch) == 0 && !firstPass {
			break
		}
		if len(batch) > 0 {
			stats.Passes++
			stats.PeakMemoryBytes = max(stats.PeakMemoryBytes, used+trackerBytes)
		}
		invert := trace.StartChild(reqtrace.PhaseScan, "hhnl.backward.invert-batch")
		block.regroup(batch)
		invert.End()

		// The streamed outer side is consumed one document at a time, so
		// the reuse path applies.
		score := trace.StartChild(reqtrace.PhaseScore, "hhnl.backward.outer-scan")
		outerIt := in.Outer.Documents()
		for pos := 0; ; pos++ {
			d2, err := collection.NextReuse(outerIt)
			if err == io.EOF {
				break
			}
			if err != nil {
				score.End()
				return nil, nil, err
			}
			if firstPass {
				results = append(results, Result{Outer: d2.ID})
				trackers = append(trackers, topk.New(opts.Lambda))
			}
			// The other finishing shape: the streamed document is the row,
			// and every resident document it reached goes to its one tracker
			// — in slot order from a dense row, read in place.
			tk, acc := trackers[pos], block.acc
			block.accumulate(scorer, d2)
			fin := scorer.Row(d2.ID)
			if acc.Dense() {
				for slot, raw := range acc.Row()[:len(batch)] {
					if raw != 0 {
						d1 := block.ids[slot]
						tk.Offer(d1, fin.Finalize(d1, raw))
					}
				}
				acc.Reset()
			} else {
				for _, sum := range acc.Drain() {
					d1 := block.ids[sum.ID]
					tk.Offer(d1, fin.Finalize(d1, sum.V))
				}
			}
			stats.Comparisons += int64(len(batch))
		}
		score.End()
	}
	stats.OuterDocs = int64(len(results))
	flush := trace.StartChild(reqtrace.PhaseFinalize, "hhnl.backward.finalize")
	for i, tk := range trackers {
		results[i].Matches = tk.Results()
	}
	flush.End()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}
