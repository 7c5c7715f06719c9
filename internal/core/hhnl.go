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
// for its similarity slots. Plan cuts the batches from the outer directory
// by that rule (nextBatch) and the run fills the batches it cut, so the
// plan charges the largest one exactly. The resident batch is held
// regrouped by term (residentBlock): the same cells in another order, a
// slot number and a weight per cell and a directory entry per distinct
// term in place of a header per document. It is charged to the same B by
// that same rule, so X, the passes and the page reads are what the paper's
// formula says.
//
// The paper prices the similarity computation at nothing; here it is the
// whole CPU cost, so "compute its similarity with every resident C2
// document" is one walk of the C1 document's cells past the block's
// postings into an accumulator (residentBlock.accumulate), not X merge
// walks. The whole join runs on the calling goroutine.
//
// With Options.Prefilter the inner scan of each batch skips clusters,
// pages and documents whose aggregate signatures are disjoint from the
// batch's OR-signature — a provably zero similarity for every resident
// outer document, so results are byte-identical.
func runHHNL(in Inputs, opts Options, m memory, scorer *document.Scorer, rows *Rows) ([]Result, *Stats, error) {
	pf := opts.Prefilter // validated by Plan
	ws := blockStates.Get()
	defer blockStates.Put(ws)
	b := blockJoin{in: in, opts: opts, mem: m, scorer: scorer, ws: ws, rows: rows, scanName: "hhnl.inner-scan",
		stats: &Stats{Algorithm: HHNL, InnerDocs: in.Inner.NumDocs()}}
	if pf != nil {
		// Disqualify inner clusters, pages and documents against the
		// batch's OR-signature before each scan.
		b.stats.Prefilter.Enabled = true
		cfg := pf.Inner.Config()
		b.prepName = "hhnl.prefilter"
		b.prepare = func(batch []document.Document) ([]bool, [][]int32, error) {
			ws.sig = batchSig(cfg, batch, ws.sig)
			var err error
			ws.need, err = sidecarNeed(pf.Inner, in.Inner, ws.sig, ws.need, &b.stats.Prefilter)
			b.extra = int64(len(ws.need))
			return ws.need, nil, err
		}
	}
	return b.run()
}

// blockState is the run state of the block joins, HHNL's and LSH's: the
// batch arena, the regrouped block with its accumulator, the outer
// iterator, the inner scanner, the trackers of the join's rows, HHNL's
// prefilter signature and keep vector, LSH's candidate lists and the
// scoring stage's candidate slots.
type blockState struct {
	arena batchArena
	block residentBlock
	outer collection.Cursor
	inner collection.Scanner
	tks   topk.Block
	sig   signature.Sig
	need  []bool
	lsh   lshLists
	cands []int32
}

func (s *blockState) release() {
	s.outer.Reset()
	s.inner.Reset(nil, nil) // drops the scan's keep vector too
	s.tks.Drop()
}

// batchArena holds the resident batch in one cell arena reused from batch
// to batch, so the stream may yield reuse-path documents: each is copied
// before the next is read.
type batchArena struct {
	docs  []document.Document
	cells []document.Cell
	// slots and most bound a batch: the plan's largest batch's documents
	// and cells.
	slots, most int
}

// reset readies the arena for batches of at most slots documents and most
// cells, keeping its arrays.
func (a *batchArena) reset(slots, most int) {
	a.docs = slices.Grow(a.docs[:0], slots)
	a.cells = slices.Grow(a.cells[:0], most)
	a.slots, a.most = slots, most
}

// fill reads the batch of the next n documents, valid until the next fill,
// and the bytes it charges: the packed sizes plus overhead each. A batch
// that packs otherwise than the directory the plan cut is an error, and so
// is one the arena, sized for the plan's largest, cannot hold: the fill
// stops short of it.
func (a *batchArena) fill(next func() (*document.Document, error), n int, overhead, planned int64) ([]document.Document, int64, error) {
	a.docs, a.cells = a.docs[:0], a.cells[:0]
	var used int64
	for range n {
		d, err := next()
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, 0, err
		}
		if len(a.docs) == a.slots || len(a.cells)+len(d.Cells) > a.most {
			break
		}
		start := len(a.cells)
		a.cells = append(a.cells, d.Cells...)
		a.docs = append(a.docs, document.Document{ID: d.ID, Cells: a.cells[start:len(a.cells):len(a.cells)]})
		used += d.EncodedSize() + overhead
	}
	if used != planned {
		return nil, 0, fmt.Errorf("core: an outer batch of %d documents charges %d bytes, the plan cut %d bytes", n, used, planned)
	}
	return a.docs, used, nil
}

// blockJoin is the block skeleton HHNL and LSH share: fill a
// resident outer batch → prepare it (the prefilter's keep vector, or the
// LSH candidate lists) → regroup it by term → stream the inner documents
// the preparation kept through the scoring stage into the trackers of the
// batch's rows; once every batch ran, flush the rows.
type blockJoin struct {
	in     Inputs
	opts   Options
	mem    memory
	scorer *document.Scorer
	ws     *blockState
	rows   *Rows
	stats  *Stats
	extra  int64 // what prepare holds beside the block, for PeakMemoryBytes
	// prepare, when non-nil, runs once per batch: keep marks the inner
	// documents the scan reads (nil: all of them — the filtered scan never
	// reads a page without a kept document), lists maps an inner id to the
	// resident slots it scores against (nil: every slot).
	prepare            func(batch []document.Document) (keep []bool, lists [][]int32, err error)
	prepName, scanName string
}

func (b *blockJoin) run() ([]Result, *Stats, error) {
	in, opts, stats := b.in, b.opts, b.stats
	trace := opts.Trace
	name := strings.ToLower(stats.Algorithm.String())
	fillName, invertName := name+".fill-batch", name+".invert-batch"
	track := trackIO(in.Outer.File(), in.Inner.File())
	outer := b.ws.outer.Documents(in.Outer)
	// The arena, the block and its accumulator are sized for the plan's
	// largest batch and reused by every batch. The trackers, one per outer
	// document over the row set's slab, are the join's: each batch scores
	// into its own documents' slots.
	cut, overhead := b.mem.cut, 4*int64(opts.Lambda)
	arena, block, scan := &b.ws.arena, &b.ws.block, &b.ws.inner
	arena.reset(cut.slots, cut.cells)
	block.resize(cut.slots, termSpan(in.Outer))
	n := int(in.Outer.NumDocs())
	results := b.rows.reset(n, opts.Lambda, &b.ws.tks)
	b.ws.cands = slices.Grow(b.ws.cands[:0], cut.slots)
	st := &blockStage{scorer: b.scorer, block: block, tk: &b.ws.tks, countFalse: stats.Prefilter.Enabled, cands: b.ws.cands}
	stored := in.Outer.File() != nil // a query batch decodes nothing

	for start := 0; start < n; {
		end, planned, _ := nextBatch(in.Outer, start, cut.budget, overhead)
		fill := trace.StartChild(reqtrace.PhaseScan, fillName)
		batch, used, err := arena.fill(outer.NextReuse, end-start, overhead, planned)
		fill.End()
		if err != nil {
			return nil, nil, err
		}
		start = end
		stats.Passes++
		stats.OuterDocs += int64(len(batch))
		if stored {
			stats.CellsDecoded += int64(len(arena.cells))
		}
		stats.PeakMemoryBytes = max(stats.PeakMemoryBytes, cut.reserve+used)

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
		st.begin(lists, len(results))
		for i := range batch {
			results = append(results, Result{Outer: batch[i].ID})
		}
		invert.End()

		// One scan of the (kept) inner documents per batch. Each is scored
		// before the next is read, so the scan's reuse arena suffices — the
		// hot loop allocates nothing.
		var kept func(id uint32) bool
		if keep != nil {
			kept = func(id uint32) bool { return keep[id] }
		}
		scan.Reset(in.Inner, kept)
		score := trace.StartChild(reqtrace.PhaseScore, b.scanName)
		var decoded int64
		for {
			var d1 *document.Document
			if d1, err = scan.NextReuse(); err != nil {
				break
			}
			decoded += int64(len(d1.Cells))
			st.score(d1)
		}
		score.End()
		stats.CellsDecoded += decoded
		if err != io.EOF {
			return nil, nil, err
		}
		stats.Comparisons += st.comparisons
		stats.Accumulations += st.accumulations
		stats.Prefilter.FalsePasses += st.falsePasses
	}
	flush := trace.StartChild(reqtrace.PhaseFlush, name+".flush")
	st.tk.Flush(len(results), func(i int, kept []Match) { results[i].Matches = kept })
	flush.End()
	stats.TrackerEntries = st.tk.Entries()
	stats.PeakMemoryBytes += block.bytes() + int64(n)*barBytes + b.extra
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(trace, stats)
	return results, stats, nil
}

// residentBlock is a resident batch regrouped by term: the batch's own
// d-cells in another order — for each distinct term the i-cell (Number is
// the slot) of every resident document containing it, ascending by slot —
// so that one streamed document is scored against the whole batch by
// walking its cells past the postings (the paper's HVNL idea, Section 4.2,
// applied to the block HHNL already holds). A term that at least a quarter
// of the plan's slots hold is written as a column over the batch's slots
// instead (accum.Columnar). It is rebuilt for every batch into the same
// buffers, which keep the largest batch's size; between two regroups only
// acc, twin and the counts change.
type residentBlock struct {
	ids []uint32 // slot → document id
	// dir is indexed by term number: 0 for a term the batch lacks, 1+e for
	// posting entry e, −1−k for column k. Only the batch's own terms, which
	// terms lists, are non-zero, so the next regroup clears it through
	// terms.
	dir   []int32
	terms []uint32
	offs  []int32 // entry e's postings are post[offs[e]:offs[e+1]]
	post  []codec.Cell
	cols  []uint16   // column k is cols[k·len(ids):(k+1)·len(ids)]
	colDF []int32    // column k's resident cells
	most  uint16     // the batch's largest weight
	acc   accum.Flat // over the batch's slots: the streamed document being scored
	// twin is acc's int32 twin over the plan's slots, zero between
	// documents: a document accumulate adds exactly (accum.Exact) goes
	// through it and is widened into acc.
	twin  []int32
	slots int // the most documents a batch holds
	// exact counts the streamed documents added through twin since
	// resize; only tests read it.
	exact int64
}

// newResidentBlock sizes a block for batches of at most slots documents
// whose term numbers lie below terms. Its postings and columns grow to the
// largest batch it regroups.
func newResidentBlock(slots int, terms int64) *residentBlock {
	b := &residentBlock{}
	b.resize(slots, terms)
	return b
}

// resize empties the block and sizes it as newResidentBlock does, keeping
// its arrays.
func (b *residentBlock) resize(slots int, terms int64) {
	b.ids, b.slots, b.exact = slices.Grow(b.ids[:0], slots), slots, 0
	b.twin = slices.Grow(b.twin[:0], slots)[:slots]
	clear(b.twin)
	b.dir = slices.Grow(b.dir[:0], int(terms))[:terms]
	clear(b.dir)
	b.terms, b.offs = b.terms[:0], b.offs[:0]
}

// regroup is a counting sort of the batch's cells by term. The first pass
// counts each term's cells (held negated in dir) and lists the terms in
// first-seen order; numbering the posting entries in that order makes
// entry e's postings start where entry e-1's end, and a Columnar term is
// numbered a column instead, and its count kept as the column's df; the
// second pass places the cells. Cells are visited in slot order, so each
// term's postings ascend by slot. The first pass also finds the batch's
// largest weight, accum.Exact's bound. The block
// must have been sized for the batch (newResidentBlock); the accumulator
// is sized to the batch itself, so a short last batch's row is short too.
func (b *residentBlock) regroup(batch []document.Document) {
	b.acc.Resize(len(batch))
	for _, t := range b.terms {
		b.dir[t] = 0
	}
	b.ids = b.ids[:0]
	dir, terms, most := b.dir, b.terms[:0], uint16(0)
	for i := range batch {
		b.ids = append(b.ids, batch[i].ID)
		for _, c := range batch[i].Cells {
			if dir[c.Term] == 0 {
				terms = append(terms, c.Term)
			}
			dir[c.Term]--
			most = max(most, c.Weight)
		}
	}
	// offs[e+1] is entry e's cursor: its start once the entry is numbered,
	// its end — the start of entry e+1 — once its cells are placed.
	offs := append(slices.Grow(b.offs[:0], len(terms)+1), 0)
	colDF := b.colDF[:0]
	next, cols := int32(0), int32(0)
	for _, t := range terms {
		if count := -dir[t]; accum.Columnar(int(count), b.slots) {
			cols++
			dir[t] = -cols
			colDF = append(colDF, count)
		} else {
			offs = append(offs, next)
			next += count
			dir[t] = int32(len(offs) - 1)
		}
	}
	width := len(batch)
	post := slices.Grow(b.post[:0], int(next))[:next]
	col := slices.Grow(b.cols[:0], int(cols)*width)[:int(cols)*width]
	clear(col)
	for i := range batch {
		for _, c := range batch[i].Cells {
			if k := dir[c.Term]; k > 0 {
				post[offs[k]] = codec.Cell{Number: uint32(i), Weight: c.Weight}
				offs[k]++
			} else {
				col[int(-1-k)*width+i] = c.Weight
			}
		}
	}
	b.terms, b.offs, b.post, b.cols, b.colDF, b.most = terms, offs, post, col, colDF, most
}

// bytes is what the block holds beside the batch it regroups: its
// accumulator and its twin, and its directory.
func (b *residentBlock) bytes() int64 {
	return int64(b.slots)*(accumBytes+twinBytes) + int64(len(b.dir))*slotBytes
}

// accumulate streams d's cells past the block's postings and columns and
// leaves d's row in acc, every slot written, and returns how many
// resident cells it met: per term of d, its posting's length or its
// column's df. Per slot the products arrive in d's ascending term order
// (DESIGN §6). A term beyond the directory is one no resident document
// holds.
//
// Under raw and cosine weighting every factor is 1, and a document whose
// products the twin holds exactly (accum.Exact: the batch's largest
// weight times the sum of d's) is added in int32 and widened into acc,
// which writes the row the float path would, bit for bit. Any other
// document clears acc and adds in float64.
func (b *residentBlock) accumulate(scorer *document.Scorer, d *document.Document) (cells int) {
	dir, offs, post, cols, width := b.dir, b.offs, b.post, b.cols, len(b.ids)
	exact := false
	if scorer.Weighting() != document.TFIDF {
		total := uint64(0)
		for _, c := range d.Cells {
			total += uint64(c.Weight)
		}
		exact = accum.Exact(b.most, total)
	}
	twin := b.twin[:width]
	if !exact {
		b.acc.Reset()
	}
	for _, c := range d.Cells {
		if int(c.Term) >= len(dir) {
			break // so is every later one: cells ascend by term
		}
		switch k := int(dir[c.Term]); {
		case k > 0:
			p := post[offs[k-1]:offs[k]]
			if exact {
				accum.AddCellsInt32(twin, p, c.Weight)
			} else {
				b.acc.AddCells(p, float64(c.Weight), scorer.TermFactor(c.Term))
			}
			cells += len(p)
		case k < 0:
			col := cols[(-1-k)*width : -k*width]
			if exact {
				accum.AddColumnInt32(twin, col, c.Weight)
			} else {
				b.acc.AddColumn(col, float64(c.Weight), scorer.TermFactor(c.Term))
			}
			cells += int(b.colDF[-1-k])
		}
	}
	if exact {
		accum.Widen(b.acc.Row(), twin)
		b.exact++
	}
	return cells
}

// blockStage is the scoring stage of the block skeleton: it scores inner
// documents against the resident block, resident slot s being row base+s.
type blockStage struct {
	scorer *document.Scorer
	block  *residentBlock
	lists  [][]int32 // inner id → slots to score, ascending; nil: every slot
	// tk holds a tracker per row of the join; the batch's are base on.
	tk   *topk.Block
	base int
	// outer is nil unless the scorer is cosine: then it holds the norm of
	// every resident slot, the batch's part of the outer norms by rank,
	// and inner the inner norms by id.
	outer, inner []float64
	// countFalse asks score to count the false passes, which only the
	// prefilter reports.
	countFalse bool
	// cands lists the slots a row offers (accum.Above); a join lends it
	// the block state's, sized for the plan's largest batch.
	cands []int32

	comparisons   int64 // pairs the scan stands for: slots (or listed slots) per document
	accumulations int64 // resident cells the scan's documents met (residentBlock.accumulate)
	falsePasses   int64 // documents that scored zero against every slot
}

// begin readies the stage for the batch the block now holds, whose rows
// start at base: under cosine it takes the resident slots' outer norms.
func (s *blockStage) begin(lists [][]int32, base int) {
	s.lists, s.base, s.comparisons, s.accumulations, s.falsePasses = lists, base, 0, 0, 0
	outer, inner := s.scorer.Norms()
	if outer != nil {
		outer = outer[base : base+len(s.block.ids)]
	}
	s.outer, s.inner = outer, inner
}

// score offers d1 to the tracker of every slot whose sum beats the
// slot's bar — of every listed slot, under slot lists. A slot it did not
// reach has similarity zero, which no tracker keeps. The row is read in
// place; the next document's accumulate writes it afresh.
//
// Under an identity scorer this is the join's hot loop: accum.Above lists
// the slots whose sums strictly exceed their bars, read in place from the
// bar vector, four per vector compare, and only those call into the slab.
// Under cosine Above lists the non-zero slots, and each pair first meets
// the admission rule against its slot's bar and norm (document.Admit),
// which divides only a pair that can enter. Under slot lists the listed
// slots are the candidates. All three meet one strict test: a sum that
// only ties its slot's bar can never enter, because every block join
// streams its inner documents in ascending id, so the slot's worst kept
// match, which the bar is, has a lower id than d1 and comes first under
// topk.Less. A slot not yet full has a bar of 0, which every candidate
// beats.
func (s *blockStage) score(d1 *document.Document) {
	s.accumulations += int64(s.block.accumulate(s.scorer, d1))
	ids, tk, base, inner := s.block.ids, s.tk, s.base, d1.ID
	bars, outer, ni := tk.Bars()[base:base+len(ids)], s.outer, 0.0
	if outer != nil {
		ni = s.inner[inner]
	}
	row := s.block.acc.Row()[:len(ids)]
	var slots []int32
	compared := len(ids)
	switch {
	case s.lists != nil:
		slots = s.lists[inner]
		compared = len(slots)
	case outer == nil:
		s.cands = accum.Above(s.cands, row, bars)
		slots = s.cands
	default:
		s.cands = accum.Above(s.cands, row, nil)
		slots = s.cands
	}
	hit := false
	for _, slot := range slots {
		sim := row[slot]
		if sim == 0 {
			continue
		}
		hit = true
		if outer != nil {
			sim = document.Admit(sim, bars[slot], outer[slot], ni)
		}
		if sim > bars[slot] {
			tk.Offer(base+int(slot), inner, sim)
		}
	}
	// A row that beat no bar may still have reached a slot.
	if s.countFalse && !hit && s.lists == nil {
		hit = slices.ContainsFunc(row, func(sim float64) bool { return sim != 0 })
	}
	s.comparisons += int64(compared)
	if s.countFalse && !hit {
		s.falsePasses++
	}
}
