package core

import (
	"errors"
	"math/rand"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/document"
)

// Joining a memory-resident query batch against a stored collection — the
// paper's batch-query scenario. HHNL and HVNL apply; VVM cannot (no
// inverted file exists for the batch).
func TestBatchJoin(t *testing.T) {
	e := buildEnv(t, 51, 30, 1, 50, 12, 256)
	r := rand.New(rand.NewSource(51))
	queries := randomDocs(r, 8, 50, 10)
	batch, err := collection.NewBatch("queries", queries)
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Outer: batch, Inner: e.c1, InnerInv: e.inv1}
	opts := Options{Lambda: 4, MemoryPages: 200}

	want := reference(t, batch, e.c1, 4, rawScorer(t))

	hh, hhStats, err := Join(HHNL, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(hh, want); err != nil {
		t.Fatal(err)
	}
	hv, _, err := Join(HVNL, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(hv, want); err != nil {
		t.Fatal(err)
	}
	// The batch itself costs no reads: HHNL's I/O is exactly the inner
	// scans.
	d1 := e.c1.Stats().D
	if got := hhStats.IO.Reads(); got != int64(hhStats.Passes)*d1 {
		t.Errorf("HHNL reads = %d, want passes %d × D1 %d", got, hhStats.Passes, d1)
	}

	// VVM is inapplicable for a batch.
	if _, _, err := Join(VVM, Inputs{Outer: batch, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}, opts); !errors.Is(err, ErrMissingInput) {
		t.Errorf("VVM on batch err = %v, want ErrMissingInput", err)
	}
}

func TestBatchJoinSparseIDs(t *testing.T) {
	// Batch ids need not be dense; results keep the original ids.
	e := buildEnv(t, 52, 15, 1, 30, 8, 256)
	queries := []*document.Document{
		document.New(100, map[uint32]int{1: 2, 5: 1}),
		document.New(7, map[uint32]int{2: 1}),
	}
	batch, err := collection.NewBatch("q", queries)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Join(HVNL, Inputs{Outer: batch, Inner: e.c1, InnerInv: e.inv1}, Options{Lambda: 2, MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Outer != 100 || res[1].Outer != 7 {
		t.Errorf("results = %+v", res)
	}
}

func TestBatchIntegratedChoosesApplicable(t *testing.T) {
	e := buildEnv(t, 53, 20, 1, 40, 10, 256)
	r := rand.New(rand.NewSource(53))
	batch, err := collection.NewBatch("q", randomDocs(r, 3, 40, 8))
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Outer: batch, Inner: e.c1, InnerInv: e.inv1}
	res, st, dec, err := JoinIntegrated(in, Options{Lambda: 3, MemoryPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == VVM {
		t.Errorf("integrated chose VVM for a batch")
	}
	if len(res) != 3 || st.Algorithm != dec.Chosen {
		t.Errorf("res=%d alg=%v chosen=%v", len(res), st.Algorithm, dec.Chosen)
	}
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := collection.NewBatch("q", []*document.Document{
		document.New(1, map[uint32]int{1: 1}),
		document.New(1, map[uint32]int{2: 1}),
	}); !errors.Is(err, collection.ErrDuplicateDoc) {
		t.Errorf("duplicate ids err = %v", err)
	}
	bad := &document.Document{ID: 1, Cells: []document.Cell{{Term: 5, Weight: 1}, {Term: 3, Weight: 1}}}
	if _, err := collection.NewBatch("q", []*document.Document{bad}); err == nil {
		t.Error("invalid doc: want error")
	}
}
