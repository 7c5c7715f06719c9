package core

import (
	"fmt"
	"io"
	"strings"

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
// for its similarity slots.
//
// With Options.Backward the loop order flips (an extension the paper
// defers to the technical report): blocks of C1 are held in memory while
// C2 is scanned once per block, with all C2 trackers kept across blocks.
// Backward order runs inline only.
//
// With Options.Prefilter the inner scan of each batch skips clusters,
// pages and documents whose aggregate signatures are disjoint from the
// batch's OR-signature — a provably zero similarity for every resident
// outer document, so results are byte-identical. The backward variant
// ignores the prefilter (its resident side is the inner collection).
func runHHNL(in Inputs, opts Options) ([]Result, *Stats, error) {
	if opts.Backward && opts.Workers > 1 {
		return nil, nil, fmt.Errorf("core: backward HHNL runs inline only, got Workers=%d", opts.Workers)
	}
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
		b.prepare = func(batch []*document.Document) ([]bool, [][]int32, error) {
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
// Each document charges its packed size plus overhead bytes.
type batchFiller struct {
	next     func() (*document.Document, error)
	budget   int64
	overhead int64
	side     string // "outer" or "inner", for the oversized-document error
	pending  *document.Document
	done     bool
}

// fill returns the next batch and the bytes it charges; an empty batch
// means the stream is exhausted. Batches are built from stable Next
// documents, since they stay resident across a whole scan of the other side.
func (f *batchFiller) fill() (batch []*document.Document, used int64, err error) {
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
			if len(batch) > 0 {
				f.pending = d
				break
			}
			return nil, 0, fmt.Errorf("%w: %s document %d (%d bytes) exceeds the batch budget %d",
				ErrInsufficientMemory, f.side, d.ID, cost, f.budget)
		}
		batch = append(batch, d)
		used += cost
	}
	return batch, used, nil
}

// blockJoin is the block skeleton forward HHNL and LSH share: fill a
// resident outer batch → prepare it (the prefilter's keep vector, or the
// LSH candidate lists) → scan the inner documents the preparation kept
// through the scoring stage → flush the batch's rows.
type blockJoin struct {
	in     Inputs
	opts   Options
	scorer *document.Scorer
	stats  *Stats
	// prepare, when non-nil, runs on the coordinator once per batch, before
	// any worker starts (its outputs are read-only afterwards): keep marks
	// the inner documents the scan reads (nil: all of them — the filtered
	// scan never reads a page without a kept document), lists maps an inner
	// id to the resident slots it scores against (nil: every slot).
	prepare            func(batch []*document.Document) (keep []bool, lists [][]int32, err error)
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
	fillName, mergeName, flushName := name+".fill-batch", name+".merge-trackers", name+".flush-batch"
	track := trackIO(in.Outer.File(), in.Inner.File())
	filler := batchFiller{next: in.Outer.Documents().Next, budget: budget, overhead: 4 * int64(opts.Lambda), side: "outer"}
	stages := make([]*blockStage, max(1, opts.Workers))

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
		for w := range stages {
			stages[w] = newBlockStage(b.scorer, batch, lists, opts.Lambda)
		}

		// One scan of the (kept) inner documents per batch, always on this
		// goroutine.
		var scan collection.ReuseIterator = in.Inner.Scan()
		if keep != nil {
			scan = in.Inner.ScanFiltered(func(id uint32) bool { return keep[id] })
		}
		score := trace.StartChild(reqtrace.PhaseScore, b.scanName)
		if len(stages) == 1 {
			err = scanInline(scan, stages[0])
		} else {
			err = scanFanned(scan, stages)
		}
		score.End()
		if err != nil {
			return nil, nil, err
		}
		for w, st := range stages {
			stats.Comparisons += st.comparisons
			if stats.Prefilter.Enabled {
				// Each scanned inner document is counted by exactly one
				// stage, so the sum is the same at every worker count.
				stats.Prefilter.FalsePasses += st.falsePasses
			}
			if tel != nil && len(stages) > 1 {
				tel.Counter(fmt.Sprintf("join.%s.worker.%d.comparisons", name, w)).Add(st.comparisons)
			}
		}

		trackers := stages[0].trackers
		if len(stages) > 1 {
			merge := trace.StartChild(reqtrace.PhaseMerge, mergeName)
			trackers = make([]*topk.TopK, len(batch))
			for i := range trackers {
				trackers[i] = topk.New(opts.Lambda)
				for _, st := range stages {
					for _, m := range st.trackers[i].Results() {
						trackers[i].Offer(m.Doc, m.Sim)
					}
				}
			}
			merge.End()
		}
		flush := trace.StartChild(reqtrace.PhaseFlush, flushName)
		for i, d2 := range batch {
			results = append(results, Result{Outer: d2.ID, Matches: trackers[i].Results()})
		}
		flush.End()
	}
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}

// blockStage is the scoring stage of the block skeleton: it scores inner
// documents against resident outer slots into its own tracker set. The
// inline path has one; the fan-out path one per worker.
type blockStage struct {
	scorer   *document.Scorer
	batch    []*document.Document
	lists    [][]int32 // inner id → slots to score, ascending; nil: every slot
	trackers []*topk.TopK

	comparisons int64
	falsePasses int64 // documents that scored zero against every slot
}

func newBlockStage(scorer *document.Scorer, batch []*document.Document, lists [][]int32, lambda int) *blockStage {
	s := &blockStage{scorer: scorer, batch: batch, lists: lists, trackers: make([]*topk.TopK, len(batch))}
	for i := range s.trackers {
		s.trackers[i] = topk.New(lambda)
	}
	return s
}

// score is the pairwise scoring loop: d1 against each of its slots, in
// ascending slot order, so every tracker's Offer order is deterministic.
func (s *blockStage) score(d1 *document.Document) {
	var slots []int32
	n := len(s.batch)
	if s.lists != nil {
		slots = s.lists[d1.ID]
		n = len(slots)
	}
	anyHit := false
	for k := 0; k < n; k++ {
		i := k
		if slots != nil {
			i = int(slots[k])
		}
		sim := s.scorer.Score(s.batch[i], d1)
		if sim != 0 {
			anyHit = true
		}
		s.trackers[i].Offer(d1.ID, sim)
	}
	s.comparisons += int64(n)
	if !anyHit {
		s.falsePasses++
	}
}

// scanInline scores on the calling goroutine. Each inner document is
// consumed before the next is read, so the scan's reuse arena suffices —
// the hot loop allocates nothing.
func scanInline(scan collection.ReuseIterator, st *blockStage) error {
	for {
		d1, err := scan.NextReuse()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		st.score(d1)
	}
}

// chunkSize is how many scanned inner documents travel to a worker at once.
const chunkSize = 64

// scanFanned hands chunks of scanned documents to one worker per stage.
// The documents are stable Next copies because they outlive the scan step
// inside the chunks.
func scanFanned(scan collection.ReuseIterator, stages []*blockStage) error {
	// One queued chunk per worker keeps every worker busy while the
	// coordinator fills the next chunk.
	fan := startFanOut(len(stages), 1, len(stages), func(w int, in <-chan []*document.Document) {
		for chunk := range in {
			for _, d1 := range chunk {
				stages[w].score(d1)
			}
		}
	})
	chunk := make([]*document.Document, 0, chunkSize)
	var err error
	for {
		var d1 *document.Document
		if d1, err = scan.Next(); err != nil {
			break
		}
		if chunk = append(chunk, d1); len(chunk) == chunkSize {
			fan.queues[0] <- chunk
			chunk = make([]*document.Document, 0, chunkSize)
		}
	}
	if err == io.EOF {
		err = nil
		fan.queues[0] <- chunk
	}
	fan.wait()
	return err
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

	trackers := make(map[uint32]*topk.TopK)
	var order []uint32
	filler := batchFiller{next: in.Inner.Scan().Next, budget: budget, side: "inner"}
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

		// The streamed outer side is consumed one document at a time, so
		// the reuse path applies (the resident inner batch, by contrast,
		// is built from stable Next documents).
		score := trace.StartChild(reqtrace.PhaseScore, "hhnl.backward.outer-scan")
		outerIt := in.Outer.Documents()
		for {
			d2, err := collection.NextReuse(outerIt)
			if err == io.EOF {
				break
			}
			if err != nil {
				score.End()
				return nil, nil, err
			}
			tk := trackers[d2.ID]
			if tk == nil {
				tk = topk.New(opts.Lambda)
				trackers[d2.ID] = tk
				order = append(order, d2.ID)
			}
			if firstPass {
				stats.OuterDocs++
			}
			for _, d1 := range batch {
				sim := scorer.Score(d2, d1)
				stats.Comparisons++
				tk.Offer(d1.ID, sim)
			}
		}
		score.End()
	}
	flush := trace.StartChild(reqtrace.PhaseFinalize, "hhnl.backward.finalize")
	results := make([]Result, 0, len(order))
	for _, id := range order {
		results = append(results, Result{Outer: id, Matches: trackers[id].Results()})
	}
	flush.End()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, trace, stats)
	return results, stats, nil
}
