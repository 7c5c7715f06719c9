package core

import (
	"errors"
	"math/rand"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/document"
)

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
