package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/signature"
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
// takes the resident batch's norms by slot, its rank in a stage begun at
// base 0, and the streamed documents' by id; an empty document (one in
// six) has norm zero. Tf-idf leaves one term in five without a weight, so
// its factor is 0.
func kernelScorers(t *testing.T, r *rand.Rand, resident, streamed []document.Document, vocab int) []kernelScorer {
	t.Helper()
	norms := make([]float64, len(resident))
	for i := range resident {
		norms[i] = resident[i].Norm()
	}
	var innerNorms []float64
	for i := range streamed {
		id := streamed[i].ID
		if int(id) >= len(innerNorms) {
			innerNorms = append(innerNorms, make([]float64, int(id)+1-len(innerNorms))...)
		}
		innerNorms[id] = streamed[i].Norm()
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
// AddCells and AddColumn, fed by residentBlock.accumulate) leaves in its
// row, one slot per document of the batch, are the pairwise scorer's to
// the last bit, and a stage fed through it ends with the
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
		sizes := []int{1 + r.Intn(20), 1, 1 + r.Intn(40)}
		block := newResidentBlock(slices.Max(sizes), int64(vocab))
		stages := map[string]*blockStage{}
		for batchNo, size := range sizes {
			batch := kernelDocs(r, size, uint32(1000*(batchNo+1)), 0, vocab, 12)
			block.regroup(batch)
			for _, ks := range kernelScorers(t, r, batch, streamed, vocab) {
				name, scorer := ks.name, ks.Scorer
				acc := &block.acc
				for i := range streamed {
					d := &streamed[i]
					block.accumulate(scorer, d)
					row := acc.Row()
					if len(row) != len(batch) {
						t.Fatalf("seed %d %s batch %d: a row of %d slots for a batch of %d", seed, name, batchNo, len(row), len(batch))
					}
					drained := slices.Clone(row)
					acc.Reset()
					outer, inner := scorer.Norms()
					for slot := range batch {
						res, sim := &batch[slot], drained[slot]
						if outer != nil {
							sim = document.Finalize(sim, outer[slot], inner[d.ID])
						}
						if want := scorer.Score(res, d); math.Float64bits(sim) != math.Float64bits(want) {
							t.Fatalf("seed %d %s batch %d: resident %d × streamed %d = %v, pairwise %v", seed, name, batchNo, res.ID, d.ID, sim, want)
						}
					}
				}

				for mode := 0; mode < 3; mode++ {
					lists := kernelLists(r, mode, len(streamed), len(batch))
					key := name + string(rune('0'+mode))
					st := stages[key]
					if st == nil {
						st = &blockStage{block: block, tk: &topk.Block{}, countFalse: true}
						stages[key] = st
					}
					st.scorer = scorer
					st.tk.Reset(len(batch), lambda, nil)
					st.begin(lists, 0)
					want := newPairwiseStage(scorer, batch, lists, lambda)
					for i := range streamed {
						st.score(&streamed[i])
						want.score(&streamed[i])
					}
					if st.comparisons != want.comparisons || st.falsePasses != want.falsePasses {
						t.Errorf("seed %d %s lists %d batch %d: comparisons %d false passes %d, pairwise %d and %d",
							seed, name, mode, batchNo, st.comparisons, st.falsePasses, want.comparisons, want.falsePasses)
					}
					rows := stageResults(st, len(batch))
					for slot := range batch {
						got, exp := rows[slot], want.trackers[slot].Results()
						if err := exactSameResults([]Result{{Matches: got}}, []Result{{Matches: exp}}); err != nil {
							t.Fatalf("seed %d %s lists %d batch %d slot %d: %v", seed, name, mode, batchNo, slot, err)
						}
					}
				}
			}
		}
	}
}

// stageResults is the kept matches of the stage's first n slots, as the
// join flushes them.
func stageResults(st *blockStage, n int) [][]Match {
	rows := make([][]Match, n)
	st.tk.Flush(n, func(slot int, kept []Match) { rows[slot] = kept })
	return rows
}

// blockOf is a resident batch of one document per term-count map, ids from
// 100.
func blockOf(counts ...map[uint32]int) []document.Document {
	batch := make([]document.Document, len(counts))
	for i, c := range counts {
		batch[i] = *document.New(100+uint32(i), c)
	}
	return batch
}

// blockFor is a block sized, as a join sizes it from its plan, for the
// largest of batches: its slots and its largest term.
func blockFor(batches ...[]document.Document) *residentBlock {
	slots, terms := 0, int64(0)
	for _, batch := range batches {
		for _, d := range batch {
			if k := len(d.Cells); k > 0 {
				terms = max(terms, int64(d.Cells[k-1].Term)+1) // cells ascend by term
			}
		}
		slots = max(slots, len(batch))
	}
	return newResidentBlock(slots, terms)
}

// TestBlockDirectoryResetsThroughTermList regroups two batches into one
// block, the second lacking term 5 of the first and holding as many
// entries, so the directory keeps its size and a stale entry for term 5
// would name one of the second batch's. A streamed document of term 5 must
// reach both slots of batch 1 and score zero against batch 2: the regroup
// clears the directory through the previous batch's term list, not over
// the vocabulary.
func TestBlockDirectoryResetsThroughTermList(t *testing.T) {
	cases := []struct {
		batch       []document.Document
		reached     int
		falsePasses int64
	}{
		{blockOf(map[uint32]int{1: 1, 5: 2}, map[uint32]int{5: 1}), 2, 0},
		{blockOf(map[uint32]int{2: 1, 3: 1}, map[uint32]int{3: 2}), 0, 1},
	}
	block := blockFor(cases[0].batch, cases[1].batch)
	st := &blockStage{scorer: rawScorer(t), block: block, tk: &topk.Block{}, countFalse: true}
	d := document.New(7, map[uint32]int{5: 3})
	for i, tc := range cases {
		block.regroup(tc.batch)
		st.tk.Reset(len(tc.batch), 3, nil)
		st.begin(nil, 0)
		st.score(d)
		reached := 0
		for _, kept := range stageResults(st, len(tc.batch)) {
			reached += len(kept)
		}
		if reached != tc.reached || st.falsePasses != tc.falsePasses || st.comparisons != 2 {
			t.Errorf("batch %d: reached %d slots, %d false passes, %d comparisons; want %d, %d, 2",
				i+1, reached, st.falsePasses, st.comparisons, tc.reached, tc.falsePasses)
		}
	}
	// Without a prefilter no false pass is reported, so none is counted.
	st.countFalse = false
	st.tk.Reset(len(cases[1].batch), 3, nil)
	st.begin(nil, 0)
	if st.score(d); st.falsePasses != 0 || st.comparisons != 2 {
		t.Errorf("a stage not counting false passes counted %d (%d comparisons)", st.falsePasses, st.comparisons)
	}
}

// TestBlockSkipsTermsBeyondDirectory streams documents holding terms
// numbered above every resident term — one just past the batch's largest,
// and one far beyond the directory — past a block, mixed with shared terms
// and alone: the stage ends with the pairwise loop's trackers and false
// passes, so a document of such terms alone reaches no slot.
func TestBlockSkipsTermsBeyondDirectory(t *testing.T) {
	batch := blockOf(map[uint32]int{0: 2, 3: 1}, map[uint32]int{3: 4, 5: 1})
	block := blockFor(batch)
	block.regroup(batch)
	scorer := rawScorer(t)
	st := &blockStage{scorer: scorer, block: block, tk: &topk.Block{}, countFalse: true}
	st.tk.Reset(len(batch), 3, nil)
	st.begin(nil, 0)
	want := newPairwiseStage(scorer, batch, nil, 3)
	beyond := uint32(len(block.dir) + 1000)
	for _, d := range []*document.Document{
		document.New(1, map[uint32]int{3: 2, 6: 1, beyond: 5}),
		document.New(2, map[uint32]int{0: 1, beyond: 1}),
		document.New(3, map[uint32]int{6: 2, beyond: 3}),
	} {
		st.score(d)
		want.score(d)
	}
	if st.falsePasses != 1 || want.falsePasses != 1 {
		t.Errorf("%d false passes, pairwise %d; want 1", st.falsePasses, want.falsePasses)
	}
	rows := stageResults(st, len(batch))
	for slot := range batch {
		got, exp := rows[slot], want.trackers[slot].Results()
		if err := exactSameResults([]Result{{Matches: got}}, []Result{{Matches: exp}}); err != nil {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
}

// BenchmarkBlockScore times the block kernel per comparison on hhnl_scan's
// shape: a resident batch of a third of a WSJ/96 collection (343
// documents), regrouped once, and the inner WSJ/96 documents streamed past
// it one per iteration under raw tf — blockStage.score's accumulate and
// finish, the loop an HHNL join spends its CPU in. Each lap of the stream
// starts with empty trackers, as each batch of a join does, so every slot
// sees its documents once and in ascending id. It must allocate nothing.
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
	block := blockFor(batch)
	block.regroup(batch)
	st := &blockStage{scorer: rawScorer(b), block: block, tk: &topk.Block{}}
	slab := st.tk.Reset(len(batch), 20, nil)
	st.begin(nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(stream) == 0 {
			slab = st.tk.Reset(len(batch), 20, slab)
		}
		st.score(&stream[i%len(stream)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.comparisons), "ns/comparison")
}

// TestBlockJoinsOfferAscendingInnerIDs guards the order the block stage's
// strict bar test rests on: every block join offers each slot its inner
// documents in ascending id. Every inner document that can reach an outer
// one here ties every other at the same similarity, and the rest share no
// term with the outer side, so the prefilter's keep vector and LSH's lists
// drop them. A slot of capacity λ then keeps the first λ tied documents
// to arrive — a tie with a full slot's bar is never offered — and that is
// the λ lowest ids, which the reference keeps, for every λ exactly when
// the slot saw them in ascending id. So HHNL, HHNL with its prefilter and
// LSH through its lists, each over several batches and under each
// weighting, fail here for some λ if one slot is offered a non-ascending
// inner id, instead of dropping a tie silently.
func TestBlockJoinsOfferAscendingInnerIDs(t *testing.T) {
	var inner, outer []*document.Document
	tied := 0
	for id := range 30 {
		counts := map[uint32]int{40: 1, 41: 1}
		if id%3 != 2 {
			counts, tied = map[uint32]int{1: 1, 4: 2}, tied+1
		}
		inner = append(inner, document.New(uint32(id), counts))
	}
	for id := range 12 {
		outer = append(outer, document.New(uint32(id), map[uint32]int{1: 1, 4: 1, 100 + uint32(id): 1}))
	}
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c1, c2 := buildColl(t, d, "c1", inner), buildColl(t, d, "c2", outer)
	e := &env{disk: d, c1: c1, c2: c2, inv1: buildInv(t, d, c1, "c1"), inv2: buildInv(t, d, c2, "c2")}
	pf := buildTestPrefilter(t, e, signature.Config{})
	sc := buildDiffLSH(t, e, lshDiffConfig)
	in := e.inputs()
	for _, w := range []document.Weighting{document.RawTF, document.Cosine, document.TFIDF} {
		scorer, err := in.scorer(Options{Weighting: w})
		if err != nil {
			t.Fatal(err)
		}
		for lambda := 1; lambda <= tied; lambda++ {
			want := reference(t, c2, c1, lambda, scorer)
			for _, run := range []struct {
				name string
				alg  Algorithm
				opts Options
			}{
				{"HHNL", HHNL, Options{}},
				{"HHNL+pf", HHNL, Options{Prefilter: pf}},
				{"LSH", LSH, Options{LSH: sc}},
			} {
				opts := run.opts
				opts.Lambda, opts.Weighting, opts.MemoryPages = lambda, w, 4
				got, st, err := Join(run.alg, in, opts)
				if err != nil {
					t.Fatalf("%s %v λ=%d: %v", run.name, w, lambda, err)
				}
				if st.Passes < 2 {
					t.Fatalf("%s %v λ=%d: %d batch, want several", run.name, w, lambda, st.Passes)
				}
				if skipped := st.Prefilter.DocsSkipped + st.LSH.DocsSkipped; run.name != "HHNL" && skipped == 0 {
					t.Fatalf("%s %v λ=%d: no inner document dropped", run.name, w, lambda)
				}
				if err := exactSameResults(got, want); err != nil {
					t.Fatalf("%s %v λ=%d: %v", run.name, w, lambda, err)
				}
			}
		}
	}
}
