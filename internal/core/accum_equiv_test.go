package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/telemetry"
)

// The accumulator layer (internal/accum) must be invisible in results:
// dense and open-addressing passes, full collections and selections all
// produce byte-identical top-λ lists. These tests pin that across the
// regime boundaries.

// regimeCorpora are three shapes whose tight passes finish in different
// regimes. A dense corpus has δ̂ near 1, so its tight passes are planned
// into the matrix and start dense. A sparse one (a large vocabulary, short
// documents) keeps its tight passes tables. In the third every document
// holds exactly one of three terms, so δ = 1/3 exceeds the independence
// estimate δ̂ = 1 − (1 − 1/9)³ ≈ 0.298: the plan starts its tight passes as
// the table, which promotes.
var regimeCorpora = []struct {
	name  string
	seed  int64
	docs  func(r *rand.Rand, n int) []*document.Document
	tight string // a regime some tight pass finishes in
}{
	{"dense", 0, func(r *rand.Rand, n int) []*document.Document { return randomDocs(r, n, 70, 16) }, "dense"},
	{"sparse", 3, func(r *rand.Rand, n int) []*document.Document { return randomDocs(r, n, 600, 6) }, "table"},
	{"one-of-three", 0, oneTermDocs(3), "promoted"},
}

// oneTermDocs draws documents that each hold one of k terms, document i
// term i mod k, at a random frequency of 1 to 3.
func oneTermDocs(k int) func(r *rand.Rand, n int) []*document.Document {
	return func(r *rand.Rand, n int) []*document.Document {
		docs := make([]*document.Document, n)
		for i := range docs {
			docs[i] = document.New(uint32(i), map[uint32]int{uint32(i % k): 1 + r.Intn(3)})
		}
		return docs
	}
}

// finishedIn returns how many passes reporting to tel finished in kind.
func finishedIn(tel *telemetry.Collector, kind string) int64 {
	return tel.Counter("join.vvm.accum." + kind).Value()
}

// coversRegimes fails unless some pass of the joins reporting to tel
// finished in each of the store's three regimes (join.vvm.accum.<kind>):
// dense from its start, a table throughout, and a table promoted into the
// matrix.
func coversRegimes(t *testing.T, tel *telemetry.Collector) {
	t.Helper()
	for _, kind := range []string{"dense", "table", "promoted"} {
		if finishedIn(tel, kind) == 0 {
			t.Errorf("no pass finished %s", kind)
		}
	}
}

// TestVVMAccumulatorRegimes runs the same join in the dense regime (one
// roomy pass) and in many-pass splits (δ ≥ 0.5 forces the sparse estimate
// over budget), expecting identical results, on corpora whose tight passes
// start dense, stay tables and promote.
func TestVVMAccumulatorRegimes(t *testing.T) {
	tel := telemetry.New()
	for _, corpus := range regimeCorpora {
		e := buildEnvOf(t, 51+corpus.seed, 45, 38, 128, corpus.docs)
		base, baseStats, err := Join(VVM, e.inputs(), Options{Lambda: 4, MemoryPages: 4000, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.Passes != 1 {
			t.Fatalf("%s base run: %d passes, want 1 (dense single pass)", corpus.name, baseStats.Passes)
		}
		tight := finishedIn(tel, corpus.tight)
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
		if finishedIn(tel, corpus.tight) == tight {
			t.Errorf("%s: no tight pass finished %s", corpus.name, corpus.tight)
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
		e := buildEnvOf(t, 53+corpus.seed, 35, 40, 128, corpus.docs)
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
		var tight int64
		for i, opts := range []Options{
			{Lambda: 4, MemoryPages: 2000, Telemetry: tel},           // dense
			{Lambda: 4, MemoryPages: 10, Delta: 1.0, Telemetry: tel}, // partitioned
			{Lambda: 4, MemoryPages: 16, Delta: 1.0, Telemetry: tel}, // one pass over M
		} {
			if i == 1 {
				tight = finishedIn(tel, corpus.tight)
			}
			got, _, err := Join(VVM, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(want, got); err != nil {
				t.Fatalf("%s opts %+v: %v", corpus.name, opts, err)
			}
		}
		if finishedIn(tel, corpus.tight) == tight {
			t.Errorf("%s: no tight pass finished %s", corpus.name, corpus.tight)
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
