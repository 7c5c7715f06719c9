package core

import (
	"math"
	"math/rand"
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/topk"
)

// pairwiseStage is the loop the accumulate kernel replaced, kept here as
// its oracle: one Scorer.Score merge walk per (slot, streamed document)
// pair, every pair offered, zero or not.
type pairwiseStage struct {
	scorer   *document.Scorer
	batch    []document.Document
	lists    [][]int32
	trackers []*topk.TopK

	comparisons, falsePasses int64
}

func newPairwiseStage(scorer *document.Scorer, batch []document.Document, lists [][]int32, lambda int) *pairwiseStage {
	s := &pairwiseStage{scorer: scorer, batch: batch, lists: lists, trackers: make([]*topk.TopK, len(batch))}
	for i := range s.trackers {
		s.trackers[i] = topk.New(lambda)
	}
	return s
}

func (s *pairwiseStage) score(d1 *document.Document) {
	slots := make([]int32, len(s.batch))
	for i := range slots {
		slots[i] = int32(i)
	}
	if s.lists != nil {
		slots = s.lists[d1.ID]
	}
	anyHit := false
	for _, i := range slots {
		sim := s.scorer.Score(&s.batch[i], d1)
		if sim != 0 {
			anyHit = true
		}
		s.trackers[i].Offer(d1.ID, sim)
	}
	s.comparisons += int64(len(slots))
	if !anyHit {
		s.falsePasses++
	}
}

// kernelDocs draws n documents with ids from firstID over terms
// [lo, lo+vocab). One in six is empty; the weights reach the encoding's
// maximum, where a product no longer fits 32 bits.
func kernelDocs(r *rand.Rand, n int, firstID, lo uint32, vocab, maxLen int) []document.Document {
	docs := make([]document.Document, n)
	for i := range docs {
		counts := map[uint32]int{}
		if r.Intn(6) > 0 {
			for j, l := 0, r.Intn(maxLen)+1; j < l; j++ {
				counts[lo+uint32(r.Intn(vocab))] += 1 + r.Intn(3)*r.Intn(30000)
			}
		}
		docs[i] = *document.New(firstID+uint32(i), counts)
	}
	return docs
}

// kernelScorer is one weighting of the property test.
type kernelScorer struct {
	name string
	*document.Scorer
}

// kernelScorers builds the three weightings over the two sides. Cosine
// gives one document in five a zero norm; tf-idf leaves one term in five
// without a weight, so its factor is 0.
func kernelScorers(t *testing.T, r *rand.Rand, resident, streamed []document.Document, vocab int) []kernelScorer {
	t.Helper()
	// One norm table serves as both sides' (a map for the outer side, a
	// slice by id for the inner): the test scores every pair in both role
	// assignments.
	norms := map[uint32]float64{}
	var innerNorms []float64
	for _, docs := range [][]document.Document{resident, streamed} {
		for i := range docs {
			id := docs[i].ID
			if int(id) >= len(innerNorms) {
				innerNorms = append(innerNorms, make([]float64, int(id)+1-len(innerNorms))...)
			}
			if r.Intn(5) > 0 {
				norms[id] = docs[i].Norm()
				innerNorms[id] = norms[id]
			}
		}
	}
	idf := make([]float64, vocab)
	for term := range idf {
		if r.Intn(5) > 0 {
			idf[term] = document.IDF(int64(vocab), int64(1+r.Intn(vocab)))
		}
	}
	raw, err1 := document.NewScorer(document.RawTF, nil, nil, nil)
	cosine, err2 := document.NewScorer(document.Cosine, nil, norms, innerNorms)
	tfidf, err3 := document.NewScorer(document.TFIDF, idf, nil, nil)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	return []kernelScorer{{"raw", raw}, {"cosine", cosine}, {"tfidf", tfidf}}
}

// kernelLists draws the three slot-list regimes: nil (every slot), sparse
// ascending lists, and lists that are empty for most streamed documents.
func kernelLists(r *rand.Rand, mode, streamed, slots int) [][]int32 {
	if mode == 0 {
		return nil
	}
	lists := make([][]int32, streamed)
	for id := range lists {
		if mode == 2 && r.Intn(4) > 0 {
			continue
		}
		for slot := 0; slot < slots; slot++ {
			if r.Intn(3) == 0 {
				lists[id] = append(lists[id], int32(slot))
			}
		}
	}
	return lists
}

// TestBlockKernelMatchesPairwiseScoring is the gate of DESIGN §5.8: over
// random resident batches and streamed documents, under every weighting
// and slot-list regime, the similarities the shared kernel (accum.Flat's
// AddCells, fed by residentBlock.accumulate) leaves, as its dense Row or
// its sparse Drain hands them out, are the pairwise scorer's to the last
// bit — in both role assignments, forward
// HHNL's and backward HHNL's — and a stage fed through it ends with the
// trackers, comparisons and false passes of the pairwise loop. Each trial
// runs several batches through one block and one stage, as a join does.
func TestBlockKernelMatchesPairwiseScoring(t *testing.T) {
	const lambda = 4
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		vocab := 5 + r.Intn(40)
		streamed := kernelDocs(r, 1+r.Intn(30), 0, 0, vocab, 12)
		if seed%8 == 0 {
			// No term in common with any batch.
			streamed = kernelDocs(r, 5, 0, uint32(vocab), vocab, 12)
		}
		var block residentBlock
		stages := map[string]*blockStage{}
		for batchNo, size := range []int{1 + r.Intn(20), 1, 1 + r.Intn(40)} {
			batch := kernelDocs(r, size, uint32(1000*(batchNo+1)), 0, vocab, 12)
			block.regroup(batch)
			for _, ks := range kernelScorers(t, r, batch, streamed, vocab) {
				name, scorer := ks.name, ks.Scorer
				acc := block.acc
				for i := range streamed {
					d := &streamed[i]
					block.accumulate(scorer, d)
					drained := map[uint32]float64{}
					if acc.Dense() {
						for slot, v := range acc.Row()[:len(batch)] {
							drained[uint32(slot)] = v
						}
						acc.Reset()
					}
					for _, sum := range acc.Drain() {
						if _, dup := drained[sum.ID]; dup || sum.V == 0 {
							t.Fatalf("seed %d %s: slot %d drained twice or at zero (%v)", seed, name, sum.ID, sum.V)
						}
						drained[sum.ID] = sum.V
					}
					for slot := range batch {
						res, raw := &batch[slot], drained[uint32(slot)]
						fwd := scorer.Finalize(res.ID, d.ID, raw)
						if want := scorer.Score(res, d); math.Float64bits(fwd) != math.Float64bits(want) {
							t.Fatalf("seed %d %s batch %d: resident %d × streamed %d = %v, pairwise %v", seed, name, batchNo, res.ID, d.ID, fwd, want)
						}
						bwd := scorer.Finalize(d.ID, res.ID, raw)
						if want := scorer.Score(d, res); math.Float64bits(bwd) != math.Float64bits(want) {
							t.Fatalf("seed %d %s batch %d: streamed %d × resident %d = %v, pairwise %v", seed, name, batchNo, d.ID, res.ID, bwd, want)
						}
					}
				}

				for mode := 0; mode < 3; mode++ {
					lists := kernelLists(r, mode, len(streamed), len(batch))
					key := name + string(rune('0'+mode))
					st := stages[key]
					if st == nil {
						st = &blockStage{block: &block}
						stages[key] = st
					}
					st.scorer = scorer
					st.begin(lists, lambda)
					want := newPairwiseStage(scorer, batch, lists, lambda)
					for i := range streamed {
						st.score(&streamed[i])
						want.score(&streamed[i])
					}
					if st.comparisons != want.comparisons || st.falsePasses != want.falsePasses {
						t.Errorf("seed %d %s lists %d batch %d: comparisons %d false passes %d, pairwise %d and %d",
							seed, name, mode, batchNo, st.comparisons, st.falsePasses, want.comparisons, want.falsePasses)
					}
					for slot := range batch {
						got, exp := st.trackers[slot].Results(), want.trackers[slot].Results()
						if err := exactSameResults([]Result{{Matches: got}}, []Result{{Matches: exp}}); err != nil {
							t.Fatalf("seed %d %s lists %d batch %d slot %d: %v", seed, name, mode, batchNo, slot, err)
						}
					}
				}
			}
		}
	}
}

// blockOf is a resident batch of one document per term-count map, ids from
// 100.
func blockOf(counts ...map[uint32]int) []document.Document {
	batch := make([]document.Document, len(counts))
	for i, c := range counts {
		batch[i] = *docOf(100+uint32(i), c)
	}
	return batch
}

// TestBlockDirectoryResetsThroughTermList regroups two batches into one
// block, the second lacking term 5 of the first and holding as many
// entries, so the directory keeps its size and a stale entry for term 5
// would name one of the second batch's. A streamed document of term 5 must
// reach both slots of batch 1 and score zero against batch 2: the regroup
// clears the directory through the previous batch's term list, not over
// the vocabulary.
func TestBlockDirectoryResetsThroughTermList(t *testing.T) {
	var block residentBlock
	st := &blockStage{scorer: rawScorer(t), block: &block}
	d := docOf(7, map[uint32]int{5: 3})
	for i, tc := range []struct {
		batch       []document.Document
		reached     int
		falsePasses int64
	}{
		{blockOf(map[uint32]int{1: 1, 5: 2}, map[uint32]int{5: 1}), 2, 0},
		{blockOf(map[uint32]int{2: 1, 3: 1}, map[uint32]int{3: 2}), 0, 1},
	} {
		block.regroup(tc.batch)
		st.begin(nil, 3)
		st.score(d)
		reached := 0
		for slot := range tc.batch {
			reached += len(st.trackers[slot].Results())
		}
		if reached != tc.reached || st.falsePasses != tc.falsePasses || st.comparisons != 2 {
			t.Errorf("batch %d: reached %d slots, %d false passes, %d comparisons; want %d, %d, 2",
				i+1, reached, st.falsePasses, st.comparisons, tc.reached, tc.falsePasses)
		}
	}
}

// TestBlockSkipsTermsBeyondDirectory streams documents holding terms
// numbered above every resident term — one just past the batch's largest,
// and one far beyond the directory — past a block, mixed with shared terms
// and alone: the stage ends with the pairwise loop's trackers and false
// passes, so a document of such terms alone reaches no slot.
func TestBlockSkipsTermsBeyondDirectory(t *testing.T) {
	batch := blockOf(map[uint32]int{0: 2, 3: 1}, map[uint32]int{3: 4, 5: 1})
	var block residentBlock
	block.regroup(batch)
	scorer := rawScorer(t)
	st := &blockStage{scorer: scorer, block: &block}
	st.begin(nil, 3)
	want := newPairwiseStage(scorer, batch, nil, 3)
	beyond := uint32(len(block.dir) + 1000)
	for _, d := range []*document.Document{
		docOf(1, map[uint32]int{3: 2, 6: 1, beyond: 5}),
		docOf(2, map[uint32]int{0: 1, beyond: 1}),
		docOf(3, map[uint32]int{6: 2, beyond: 3}),
	} {
		st.score(d)
		want.score(d)
	}
	if st.falsePasses != 1 || want.falsePasses != 1 {
		t.Errorf("%d false passes, pairwise %d; want 1", st.falsePasses, want.falsePasses)
	}
	for slot := range batch {
		got, exp := st.trackers[slot].Results(), want.trackers[slot].Results()
		if err := exactSameResults([]Result{{Matches: got}}, []Result{{Matches: exp}}); err != nil {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
}

// TestBlockJoinAllocationsDoNotGrowWithPasses is the go-test form of
// alloc_kb_per_op's bound on the benchmark's hhnl_scan: the cell arena,
// the regrouped block, every stage's accumulator and its trackers are
// built once per join and reused by every batch. So, first, regrouping a
// batch into a block that has held one as large, and readying a stage for
// it, allocates nothing; second, the same collections joined in four or
// more passes allocate what one pass allocates, give or take a scanner per
// pass — and forward, where a tracker belongs to a resident slot, a whole
// object per outer document less. A tracker set rebuilt per batch costs
// two objects per outer document and fails the second at once.
func TestBlockJoinAllocationsDoNotGrowWithPasses(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	batch := kernelDocs(r, 50, 0, 0, 40, 10)
	var block residentBlock
	st := &blockStage{block: &block}
	block.regroup(batch)
	st.begin(nil, 3)
	if allocs := testing.AllocsPerRun(10, func() {
		block.regroup(batch[:20])
		st.begin(nil, 3)
		block.regroup(batch)
		st.begin(nil, 3)
	}); allocs != 0 {
		t.Errorf("regrouping into a warm block allocates %.0f objects, want 0", allocs)
	}

	const n2 = 200
	d := iosim.NewDisk(iosim.WithPageSize(256))
	c1 := buildColl(t, d, "c1", randomDocs(r, 60, 50, 10))
	c2 := buildColl(t, d, "c2", randomDocs(r, n2, 50, 10))
	in := Inputs{Outer: c2, Inner: c1}
	for _, backward := range []bool{false, true} {
		allocs := func(pages int64) (allocs float64, passes int) {
			opts := Options{Lambda: 3, MemoryPages: pages, Backward: backward}
			allocs = testing.AllocsPerRun(5, func() {
				res, st, err := Join(HHNL, in, opts)
				if err != nil || len(res) != n2 {
					t.Fatalf("backward=%v B=%d: rows=%d stats=%+v err=%v", backward, pages, len(res), st, err)
				}
				passes = st.Passes
			})
			return allocs, passes
		}
		pages := int64(8)
		if backward {
			pages = 12 // the outer trackers are resident as well
		}
		one, passes1 := allocs(4000)
		many, passes := allocs(pages)
		if passes1 != 1 || passes < 4 {
			t.Fatalf("backward=%v: %d and %d passes, want 1 and at least 4", backward, passes1, passes)
		}
		// A pass opens one scan of the streamed side: a scanner and its
		// buffers.
		budget := one + 8*float64(passes)
		if !backward {
			// One pass builds a tracker — two objects — per outer document,
			// four passes or more at most a quarter of them.
			budget -= n2
		}
		if many > budget {
			t.Errorf("backward=%v: %.0f allocations in one pass, %.0f in %d; want at most %.0f", backward, one, many, passes, budget)
		}
	}
}

// BenchmarkBlockScore times the block kernel per comparison on hhnl_scan's
// shape: a resident batch of a third of a WSJ/96 collection (343
// documents), regrouped once, and the inner WSJ/96 documents streamed past
// it one per iteration under raw tf — blockStage.score's accumulate and
// finish, the loop a forward HHNL join spends its CPU in. It must allocate
// nothing.
//
//	go test -run '^$' -bench BlockScore -benchmem ./internal/core
func BenchmarkBlockScore(b *testing.B) {
	p := corpus.WSJ.Scaled(96)
	docs := func(seed int64, n int) []document.Document {
		g, err := corpus.NewGenerator(p, seed)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]document.Document, n)
		for i := range out {
			out[i] = *g.Document(uint32(i))
		}
		return out
	}
	batch, stream := docs(2, int(p.NumDocs/3)), docs(1, int(p.NumDocs))
	var block residentBlock
	block.regroup(batch)
	st := &blockStage{scorer: rawScorer(b), block: &block}
	st.begin(nil, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.score(&stream[i%len(stream)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.comparisons), "ns/comparison")
}

// TestInlinePathAllocationsDoNotGrowWithInner is the go-test form of what
// alloc_kb_per_op on the benchmark's hhnl_scan measures: the inner scan
// reuses one arena document, so a four times larger inner collection must
// not cost more allocations. A scan through the stable Next path allocates
// at least two objects per inner document and fails this at once.
func TestInlinePathAllocationsDoNotGrowWithInner(t *testing.T) {
	const n = 150
	// Every document shares one vocabulary, so with its single-row bands the
	// LSH join sees every inner document as a candidate of the one outer
	// document: its verify scan is as long as HHNL's inner scan.
	build := func(inner int) (Inputs, Options) {
		r := rand.New(rand.NewSource(7))
		d := iosim.NewDisk(iosim.WithPageSize(256))
		docs := make([]*document.Document, inner)
		for i := range docs {
			docs[i] = docOf(uint32(i), map[uint32]int{1: 1 + r.Intn(3), 2: 1, 3: 1 + r.Intn(2)})
		}
		c1 := buildColl(t, d, "c1", docs)
		c2 := buildColl(t, d, "c2", docs[:1])
		f, err := d.Create("c1.lsh")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := lsh.Build(c1, f, lshDiffConfig)
		if err != nil {
			t.Fatal(err)
		}
		return Inputs{Outer: c2, Inner: c1}, Options{Lambda: 5, MemoryPages: 4000, LSH: sc}
	}
	for _, tc := range []struct {
		alg Algorithm
		// perDoc is the state the family legitimately keeps per candidate
		// inner document: LSH's one-entry candidate list.
		perDoc float64
	}{{HHNL, 0}, {LSH, 1}} {
		allocs := func(inner int) float64 {
			in, opts := build(inner)
			return testing.AllocsPerRun(5, func() {
				res, st, err := Join(tc.alg, in, opts)
				if err != nil || len(res) != 1 || st.Comparisons != int64(inner) {
					t.Fatalf("%v over %d inner docs: rows=%d stats=%+v err=%v", tc.alg, inner, len(res), st, err)
				}
			})
		}
		small, large := allocs(n), allocs(4*n)
		if budget := small + tc.perDoc*3*n + 8; large > budget {
			t.Errorf("%v: %.0f allocations over %d inner docs, %.0f over %d; want at most %.0f",
				tc.alg, small, n, large, 4*n, budget)
		}
	}
}
