package textjoin

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the public surface of the extensions (clustered ordering,
// extended cost model).

func TestPublicClusterCollection(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ws := NewWorkspace(WithPageSize(256))
	src, err := ws.NewCollection("src", randomDocuments(r, 15, 30, 8))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := ws.BuildClusteredLayout("clustered", src, nil, SignatureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clustered, origIDs := lay.Collection, lay.IDMap
	if clustered.NumDocs() != src.NumDocs() || len(origIDs) != 15 {
		t.Fatalf("clustered N = %d, origIDs = %d", clustered.NumDocs(), len(origIDs))
	}
	// Every original id appears exactly once.
	seen := map[uint32]bool{}
	for _, id := range origIDs {
		if seen[id] {
			t.Fatalf("duplicate original id %d", id)
		}
		seen[id] = true
	}
	// Content preserved under the mapping.
	for newID, oldID := range origIDs {
		a, err1 := clustered.Fetch(uint32(newID))
		b, err2 := src.Fetch(oldID)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a.Cells) != len(b.Cells) {
			t.Fatalf("doc %d content differs", newID)
		}
	}
}

func TestPublicExtendedCostModel(t *testing.T) {
	in := CostInput{C1: Profiles()[0].Stats(), C2: Profiles()[0].Stats()}
	sys := System{B: 10000, P: 4096, Alpha: 5}
	q := QueryParams{Lambda: 20, Delta: 0.1}

	// Zero knobs reproduce the I/O-only estimates.
	plain := EstimateCosts(in, sys, q)
	extended := EstimateTotalCosts(in, sys, q, CPUParams{}, NetParams{})
	if len(extended) != 3 {
		t.Fatalf("breakdowns = %v", extended)
	}
	for i, b := range extended {
		if b.CPU != 0 || b.Comm != 0 {
			t.Errorf("%v: non-zero knobs at defaults: %+v", b.Algorithm, b)
		}
		if math.Abs(b.IO-plain[i].Seq) > 1e-9 {
			t.Errorf("%v: IO %v != plain seq %v", b.Algorithm, b.IO, plain[i].Seq)
		}
	}

	// Turning the knobs adds cost.
	loaded := EstimateTotalCosts(in, sys, q,
		CPUParams{OpsPerPageRead: 1e6},
		NetParams{CostPerPage: 1, C1Remote: true})
	for i, b := range loaded {
		if b.CPU <= 0 || b.Comm <= 0 {
			t.Errorf("%v: knobs had no effect: %+v", b.Algorithm, b)
		}
		if b.Total() <= extended[i].Total() {
			t.Errorf("%v: total did not grow", b.Algorithm)
		}
	}
}
