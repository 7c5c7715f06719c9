package core

import (
	"math"
	"runtime"
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

// TestHVNLAllocationsDoNotGrowWithFetches is the go-test form of
// alloc_kb_per_op's bound on the benchmark's hvnl_probe: a fetched entry
// decodes into the slab of one the cache evicted, so a join over
// four times the outer documents, making three times the entry fetches,
// allocates what the shorter join allocates plus its extra result rows and
// a fixed bound. An entry allocated per fetch costs its header and cells
// every time, and fails it.
func TestHVNLAllocationsDoNotGrowWithFetches(t *testing.T) {
	n := int(wsjHVNLEnv(t, 0).c2.NumDocs()) / 4
	// allocated returns the bytes a join over the first outer documents
	// allocates beyond its result rows: per row, a Result and its matches.
	allocated := func(outer int) (bytes int64, st *Stats) {
		e := wsjHVNLEnv(t, outer)
		bytes = math.MaxInt64
		for range 3 { // the first run also loads the B+tree
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, s, err := Join(HVNL, e.inputs(), wsjHVNLOptions)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			rows := int64(0)
			for _, r := range res {
				rows += 32 + 16*int64(len(r.Matches))
			}
			bytes, st = min(bytes, int64(after.TotalAlloc-before.TotalAlloc)-rows), s
		}
		return bytes, st
	}
	one, short := allocated(n)
	four, long := allocated(4 * n)
	if long.EntryFetches < 3*short.EntryFetches || long.Cache.Evictions == 0 {
		t.Fatalf("%d and %d outer documents: %d and %d entry fetches, %d evictions; want three times the fetches, with evictions",
			n, 4*n, short.EntryFetches, long.EntryFetches, long.Cache.Evictions)
	}
	const bound = 32 << 10
	t.Logf("beyond their rows, %d outer documents allocate %d bytes for %d fetches, %d allocate %d for %d",
		n, one, short.EntryFetches, 4*n, four, long.EntryFetches)
	if four > one+bound {
		t.Errorf("%d fetches allocate %d bytes beyond the rows, %d fetches %d: %d more, want at most %d",
			long.EntryFetches, four, short.EntryFetches, one, four-one, bound)
	}
}

// TestHVNLOccupancyCountsReachedDocuments holds Stats.Pairs to the
// brute-force count of inner documents each outer document shares a term
// with, on a corpus whose rows stay sparse and rows that turn dense (a
// quarter of the inner ids).
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
