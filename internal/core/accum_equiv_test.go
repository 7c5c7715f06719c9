package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/iosim"
	"textjoin/internal/telemetry"
)

// The accumulator layer (internal/accum) must be invisible in results:
// dense and open-addressing passes, full collections and selections all
// produce byte-identical top-λ lists. These tests pin that across the
// regime boundaries.

// regimeCorpora are a dense corpus, whose tight passes outgrow the table
// and move into the matrix, and a sparse one (a large vocabulary, short
// documents), whose tight passes stay tables.
var regimeCorpora = []struct {
	name          string
	seed          int64
	vocab, maxLen int
}{{"dense", 0, 70, 16}, {"sparse", 3, 600, 6}}

// coversRegimes fails unless some pass of the joins reporting to tel
// finished in each of the store's three regimes (join.vvm.accum.<kind>):
// dense from its start, a table throughout, and a table promoted into the
// matrix.
func coversRegimes(t *testing.T, tel *telemetry.Collector) {
	t.Helper()
	for _, kind := range []string{"dense", "table", "promoted"} {
		if tel.Counter("join.vvm.accum."+kind).Value() == 0 {
			t.Errorf("no pass finished %s", kind)
		}
	}
}

// TestVVMAccumulatorRegimes runs the same join in the dense regime (one
// roomy pass) and in many-pass splits (δ ≥ 0.5 forces the sparse estimate
// over budget), expecting identical results, on a corpus whose tight
// passes promote and one whose tight passes stay tables.
func TestVVMAccumulatorRegimes(t *testing.T) {
	tel := telemetry.New()
	for _, corpus := range regimeCorpora {
		e := buildEnv(t, 51+corpus.seed, 45, 38, corpus.vocab, corpus.maxLen, 128)
		base, baseStats, err := Join(VVM, e.inputs(), Options{Lambda: 4, MemoryPages: 4000, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.Passes != 1 {
			t.Fatalf("%s base run: %d passes, want 1 (dense single pass)", corpus.name, baseStats.Passes)
		}
		for _, opts := range []Options{
			{Lambda: 4, MemoryPages: 12, Delta: 1.0, Telemetry: tel}, // sparse, multi-pass
			{Lambda: 4, MemoryPages: 20, Delta: 0.5, Telemetry: tel},
		} {
			got, gotStats, err := Join(VVM, e.inputs(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats.Passes <= 1 {
				t.Fatalf("%s opts %+v: %d passes, want a multi-pass split", corpus.name, opts, gotStats.Passes)
			}
			if err := sameResults(base, got); err != nil {
				t.Fatalf("%s opts %+v: %v", corpus.name, opts, err)
			}
		}
	}
	coversRegimes(t, tel)
}

// TestVVMSubsetAcrossRegimes joins a scattered selection (exercising the
// IDSet bitmap/binary-search paths rather than the contiguous fast path)
// in every store regime against the brute-force reference.
func TestVVMSubsetAcrossRegimes(t *testing.T) {
	tel := telemetry.New()
	for _, corpus := range regimeCorpora {
		e := buildEnv(t, 53+corpus.seed, 35, 40, corpus.vocab, corpus.maxLen, 128)
		sub, err := e.c2.Subset([]uint32{0, 3, 4, 11, 17, 18, 19, 31, 39})
		if err != nil {
			t.Fatal(err)
		}
		in := Inputs{Outer: sub, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
		scorer, err := in.scorer(Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		want := reference(t, sub, e.c1, 4, scorer)
		for _, opts := range []Options{
			{Lambda: 4, MemoryPages: 2000, Telemetry: tel},           // dense
			{Lambda: 4, MemoryPages: 10, Delta: 1.0, Telemetry: tel}, // table or promoted, partitioned
		} {
			got, _, err := Join(VVM, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(want, got); err != nil {
				t.Fatalf("%s opts %+v: %v", corpus.name, opts, err)
			}
		}
	}
	coversRegimes(t, tel)
}

// TestQuickAccumRegimesEqual property-tests that memory budget (and with
// it the dense/sparse accumulator choice and the pass split) never
// changes any algorithm's results, on random corpora and random subsets.
func TestQuickAccumRegimesEqual(t *testing.T) {
	check := func(seed int64, pages16 uint16, subset bool) bool {
		r := rand.New(rand.NewSource(seed))
		d := iosim.NewDisk(iosim.WithPageSize(128))
		c1 := buildColl(t, d, "c1", randomDocs(r, r.Intn(25)+1, 50, 10))
		c2 := buildColl(t, d, "c2", randomDocs(r, r.Intn(25)+1, 50, 10))
		inv1 := buildInv(t, d, c1, "c1")
		inv2 := buildInv(t, d, c2, "c2")
		in := Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
		if subset {
			ids := make([]uint32, 0, c2.NumDocs())
			for id := int64(0); id < c2.NumDocs(); id++ {
				if r.Intn(2) == 0 {
					ids = append(ids, uint32(id))
				}
			}
			sub, err := c2.Subset(ids)
			if err != nil {
				t.Fatal(err)
			}
			in.Outer = sub
		}
		roomy := Options{Lambda: r.Intn(5) + 1, MemoryPages: 5000}
		tight := roomy
		tight.MemoryPages = int64(pages16%40) + 6
		tight.Delta = 1.0

		want, _, err := Join(VVM, in, roomy)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Join(VVM, in, tight)
		if err != nil {
			// A tiny budget may be legitimately insufficient.
			return errors.Is(err, ErrInsufficientMemory)
		}
		return sameResults(want, got) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
