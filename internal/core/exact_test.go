package core

import (
	"fmt"
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// exactDocs joins alg on in with the vector kernel on and returns the
// results, the Stats and how many streamed documents the join added
// through the block's int32 twin: the count its block state kept, read
// back from the free list the join returned the state to.
func exactDocs(t *testing.T, alg Algorithm, in Inputs, opts Options) ([]Result, *Stats, int64) {
	t.Helper()
	got, st, err := Join(alg, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := blockStates.Get()
	defer blockStates.Put(ws)
	return got, st, ws.block.exact
}

// TestExactPathCoversBenchmarkShapes: on the benchmark's WSJ shapes every
// document a block join streams goes through the int32 twin under raw
// and cosine weighting (hhnl_scan's WSJ/96 at B = 32; serve_mix's WSJ/128
// HHNL and LSH), and none under tf-idf: passes × N1 documents for HHNL,
// and for LSH one per inner document a batch's candidates kept.
func TestExactPathCoversBenchmarkShapes(t *testing.T) {
	was := setColumns(true)
	defer setColumns(was)
	if !setColumns(true) {
		t.Skip("this CPU has no vector kernel: no document takes the int32 path")
	}
	for _, shape := range []struct {
		scale int64
		pages int64
		lsh   bool
	}{{96, 32, false}, {128, 0, false}, {128, 0, true}} {
		d := iosim.NewDisk(iosim.WithPageSize(iosim.DefaultPageSize))
		c1, err := corpus.GenerateOn(d, "c1", corpus.WSJ.Scaled(shape.scale), 1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := corpus.GenerateOn(d, "c2", corpus.WSJ.Scaled(shape.scale), 2)
		if err != nil {
			t.Fatal(err)
		}
		e := &env{disk: d, c1: c1, c2: c2}
		alg, opts := HHNL, Options{Lambda: 20, MemoryPages: shape.pages}
		if shape.lsh {
			alg, opts.LSH = LSH, buildDiffLSH(t, e, lshDiffConfig)
		}
		for _, w := range allWeightings {
			opts.Weighting = w
			_, st, exact := exactDocs(t, alg, e.inputs(), opts)
			want := int64(st.Passes) * c1.NumDocs()
			if alg == LSH {
				want = c1.NumDocs()*int64(st.Passes) - st.LSH.DocsSkipped
			}
			if w == document.TFIDF {
				want = 0
			}
			if exact != want {
				t.Errorf("%v WSJ/%d B=%d %v: %d streamed documents took the int32 path, want %d (%d passes)",
					alg, shape.scale, shape.pages, w, exact, want, st.Passes)
			}
		}
	}
}

// TestExactGuardSendsADocumentToFloats plants a weight of 65 535 in an
// outer document and in one inner one, so that the batch's largest weight
// times that inner document's weights passes 2³¹ — their product alone
// would overflow an int32. That document, and only it, takes the float
// path in every batch; the join's results equal the brute-force
// reference's, and its results and every Stats field equal the float
// path's, the vector kernel turned off.
func TestExactGuardSendsADocumentToFloats(t *testing.T) {
	was := setColumns(true)
	defer setColumns(was)
	if !setColumns(true) {
		t.Skip("this CPU has no vector kernel: every document takes the float path")
	}
	var inner, outer []*document.Document
	for id := range 24 {
		counts := map[uint32]int{uint32(id % 5): 1 + id%3, 7: 2, 10 + uint32(id%4): 1}
		if id == 9 {
			counts[7] = 65535
		}
		inner = append(inner, document.New(uint32(id), counts))
	}
	for id := range 10 {
		counts := map[uint32]int{uint32(id % 5): 2, 7: 1 + id%2, 12: 1}
		if id == 4 {
			counts[7] = 65535
		}
		outer = append(outer, document.New(uint32(id), counts))
	}
	d := iosim.NewDisk(iosim.WithPageSize(64))
	e := &env{disk: d, c1: buildColl(t, d, "c1", inner), c2: buildColl(t, d, "c2", outer)}
	e.inv1, e.inv2 = buildInv(t, d, e.c1, "c1"), buildInv(t, d, e.c2, "c2")
	in := e.inputs()
	for _, w := range []document.Weighting{document.RawTF, document.Cosine} {
		for _, pages := range []int64{0, 6} {
			opts := Options{Lambda: 3, Weighting: w, MemoryPages: pages}
			name := fmt.Sprintf("%v B=%d", w, pages)
			got, st, exact := exactDocs(t, HHNL, in, opts)
			// Only the batch holding outer document 4 has 65 535 as its
			// largest weight, so inner document 9 fails the guard once.
			if want := int64(st.Passes)*int64(len(inner)) - 1; exact != want {
				t.Errorf("%s: %d documents took the int32 path in %d passes, want %d", name, exact, st.Passes, want)
			}
			scorer, err := in.scorer(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := exactSameResults(got, reference(t, e.c2, e.c1, opts.Lambda, scorer)); err != nil {
				t.Errorf("%s: against the reference: %v", name, err)
			}
			if err := sameBothWays(e, HHNL, in, opts); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
