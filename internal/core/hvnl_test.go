package core

import (
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// wsjHVNLEnv builds the eviction-heavy input of TestHVNLPolicies on a fresh
// disk — 1/256 WSJ, C1 from seed 1, C2 from seed 2 — with C2 rebuilt from
// its first outer documents (all of them when outer is 0).
func wsjHVNLEnv(t *testing.T, outer int) *env {
	t.Helper()
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(5))
	c1, err := corpus.GenerateOn(d, "c1", corpus.WSJ.Scaled(256), 1)
	if err != nil {
		t.Fatal(err)
	}
	generated, err := corpus.GenerateOn(d, "generated", corpus.WSJ.Scaled(256), 2)
	if err != nil {
		t.Fatal(err)
	}
	docs := scanDocs(t, generated)
	if outer > 0 {
		docs = docs[:outer]
	}
	e := &env{disk: d, c1: c1, c2: buildColl(t, d, "c2", docs), inv1: buildInv(t, d, c1, "c1")}
	d.ResetStats()
	return e
}

// wsjHVNLOptions is TestHVNLPolicies' eviction-heavy configuration.
var wsjHVNLOptions = Options{Lambda: 20, MemoryPages: 11}

// TestHVNLOccupancyCountsReachedDocuments holds Stats.Pairs to the
// brute-force count of inner documents each outer document shares a term
// with, on a corpus with sparse rows and dense ones (reaching less and
// more than a quarter of the inner ids).
func TestHVNLOccupancyCountsReachedDocuments(t *testing.T) {
	e := buildEnv(t, 71, 60, 50, 400, 30, 256)
	inner := scanDocs(t, e.c1)
	var want int64
	sparse, dense := 0, 0
	for _, d2 := range scanDocs(t, e.c2) {
		reached := 0
		for _, d1 := range inner {
			if document.CommonTerms(d2, d1) > 0 {
				reached++
			}
		}
		want += int64(reached)
		if reached >= len(inner)/4 {
			dense++
		} else {
			sparse++
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("%d sparse and %d dense rows, want both", sparse, dense)
	}
	_, st, err := Join(HVNL, e.inputs(), Options{Lambda: 5, MemoryPages: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != want {
		t.Errorf("Pairs = %d, want %d", st.Pairs, want)
	}
}
