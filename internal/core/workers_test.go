package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
)

// These are the worker-count rows the differential harness's nine shapes
// do not reach: other corpora, subset outers, multi-pass VVM, every
// weighting and cache regime of HVNL, precondition errors and random
// property checks — each holding Join at Workers > 1 to the same join
// run inline.

// HHNL runs inline at every worker count, backward order included: Workers
// is a ceiling it does not use, never an error.
func TestParallelHHNLMatchesSerial(t *testing.T) {
	e := buildEnv(t, 41, 40, 35, 60, 14, 256)
	for _, opts := range []Options{
		{Lambda: 5, MemoryPages: 60},
		{Lambda: 5, MemoryPages: 60, Backward: true},
	} {
		serial, serialStats, err := Join(HHNL, e.inputs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			par, parStats, err := joinAt(HHNL, e.inputs(), opts, workers)
			if err != nil {
				t.Fatalf("backward=%v workers=%d: %v", opts.Backward, workers, err)
			}
			if err := exactSameResults(serial, par); err != nil {
				t.Fatalf("backward=%v workers=%d: %v", opts.Backward, workers, err)
			}
			if parStats.Comparisons != serialStats.Comparisons {
				t.Errorf("backward=%v workers=%d: comparisons %d vs serial %d", opts.Backward, workers, parStats.Comparisons, serialStats.Comparisons)
			}
			if parStats.IO.Reads() != serialStats.IO.Reads() {
				t.Errorf("backward=%v workers=%d: reads %d vs serial %d", opts.Backward, workers, parStats.IO.Reads(), serialStats.IO.Reads())
			}
		}
	}
}

func TestParallelVVMMatchesSerial(t *testing.T) {
	e := buildEnv(t, 43, 40, 35, 60, 14, 128)
	for _, opts := range []Options{
		{Lambda: 5, MemoryPages: 1000},          // single pass
		{Lambda: 5, MemoryPages: 8, Delta: 1.0}, // many passes
	} {
		serial, serialStats, err := Join(VVM, e.inputs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			par, parStats, err := joinAt(VVM, e.inputs(), opts, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if err := sameResults(serial, par); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if parStats.Passes != serialStats.Passes {
				t.Errorf("workers=%d: passes %d vs %d", workers, parStats.Passes, serialStats.Passes)
			}
			if parStats.Accumulations != serialStats.Accumulations {
				t.Errorf("workers=%d: accumulations %d vs %d", workers, parStats.Accumulations, serialStats.Accumulations)
			}
			if parStats.IO.Reads() != serialStats.IO.Reads() {
				t.Errorf("workers=%d: reads %d vs %d", workers, parStats.IO.Reads(), serialStats.IO.Reads())
			}
		}
	}
}

func TestParallelVVMSubset(t *testing.T) {
	e := buildEnv(t, 44, 30, 30, 50, 12, 256)
	sub, err := e.c2.Subset([]uint32{2, 9, 14, 15, 28})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Outer: sub, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
	opts := Options{Lambda: 3, MemoryPages: 500}
	serial, _, err := Join(VVM, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := joinAt(VVM, in, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(serial, par); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMissingInputs(t *testing.T) {
	e := buildEnv(t, 45, 5, 5, 20, 8, 256)
	if _, _, err := joinAt(HHNL, Inputs{Outer: e.c2}, Options{}, 2); !errors.Is(err, ErrMissingInput) {
		t.Errorf("HHNL err = %v", err)
	}
	if _, _, err := joinAt(VVM, Inputs{Outer: e.c2, Inner: e.c1}, Options{}, 2); !errors.Is(err, ErrMissingInput) {
		t.Errorf("VVM err = %v", err)
	}
}

func TestParallelPropagatesFaults(t *testing.T) {
	e := buildEnv(t, 46, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 8, Repeat: true})
	if _, _, err := joinAt(HHNL, e.inputs(), Options{Lambda: 3, MemoryPages: 100}, 3); !errors.Is(err, iosim.ErrInjected) {
		t.Errorf("parallel HHNL err = %v, want ErrInjected", err)
	}
	e.disk.InjectFaults(iosim.FaultPlan{})
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c2.inv", FailAfterReads: 1, Repeat: true})
	if _, _, err := joinAt(VVM, e.inputs(), Options{Lambda: 3, MemoryPages: 100}, 3); !errors.Is(err, iosim.ErrInjected) {
		t.Errorf("parallel VVM err = %v, want ErrInjected", err)
	}
}

// Property: parallel and serial results agree for random corpora, worker
// counts and memory budgets.
func TestQuickParallelEqualsSerial(t *testing.T) {
	check := func(seed int64, workerSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(workerSeed%6) + 1
		d := iosim.NewDisk(iosim.WithPageSize(128))
		c1 := buildColl(t, d, "c1", randomDocs(r, r.Intn(20)+1, 40, 10))
		c2 := buildColl(t, d, "c2", randomDocs(r, r.Intn(20)+1, 40, 10))
		inv1 := buildInv(t, d, c1, "c1")
		inv2 := buildInv(t, d, c2, "c2")
		in := Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
		opts := Options{Lambda: r.Intn(5) + 1, MemoryPages: int64(r.Intn(100) + 8)}

		sh, _, err1 := Join(HHNL, in, opts)
		ph, _, err2 := joinAt(HHNL, in, opts, workers)
		if err1 != nil || err2 != nil {
			return errors.Is(err1, ErrInsufficientMemory) && errors.Is(err2, ErrInsufficientMemory)
		}
		if sameResults(sh, ph) != nil {
			return false
		}
		sv, _, err3 := Join(VVM, in, opts)
		pv, _, err4 := joinAt(VVM, in, opts, workers)
		if err3 != nil || err4 != nil {
			return errors.Is(err3, ErrInsufficientMemory) && errors.Is(err4, ErrInsufficientMemory)
		}
		return sameResults(sv, pv) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sameHVNLStats asserts the statistics the parallel HVNL must reproduce
// exactly: all storage access stays on one goroutine in serial order, so
// page counts, the sequential/random split, cache behavior, entry fetches,
// accumulation counts and the peak-memory estimate are byte-identical.
//
// The callers compare runs over freshly rebuilt environments: the
// simulated disk head position persists across runs, so re-running even
// the identical access sequence on a used disk can reclassify its first
// reads.
func sameHVNLStats(t *testing.T, label string, serial, par *Stats) {
	t.Helper()
	if par.IO != serial.IO {
		t.Errorf("%s: IO %+v vs serial %+v", label, par.IO, serial.IO)
	}
	if par.Cache != serial.Cache {
		t.Errorf("%s: cache %+v vs serial %+v", label, par.Cache, serial.Cache)
	}
	if par.EntryFetches != serial.EntryFetches {
		t.Errorf("%s: entry fetches %d vs serial %d", label, par.EntryFetches, serial.EntryFetches)
	}
	if par.Accumulations != serial.Accumulations {
		t.Errorf("%s: accumulations %d vs serial %d", label, par.Accumulations, serial.Accumulations)
	}
	if par.Passes != serial.Passes {
		t.Errorf("%s: passes %d vs serial %d", label, par.Passes, serial.Passes)
	}
	if par.PeakMemoryBytes != serial.PeakMemoryBytes {
		t.Errorf("%s: peak memory %d vs serial %d", label, par.PeakMemoryBytes, serial.PeakMemoryBytes)
	}
	if par.Cost != serial.Cost {
		t.Errorf("%s: cost %v vs serial %v", label, par.Cost, serial.Cost)
	}
}

// TestHVNLParallelIdentity is the tentpole's identity matrix: parallel
// HVNL against serial HVNL across all three weightings, worker counts
// {1, 2, 7}, both cache policies, and cache budgets spanning the
// preload-everything regime down to one that forces evictions — results
// and every I/O-visible statistic must match exactly. Every run gets a
// freshly built environment so the simulated disk starts from the same
// head position.
func TestHVNLParallelIdentity(t *testing.T) {
	build := func() Inputs { return buildEnv(t, 61, 42, 36, 65, 15, 128).inputs() }
	optsList := []Options{
		{Lambda: 5, MemoryPages: 4000},                            // roomy: sequential preload regime
		{Lambda: 5, MemoryPages: 40},                              // tight: demand fetches with evictions
		{Lambda: 5, MemoryPages: 40, CachePolicy: entrycache.LRU}, // tight, ablation policy
		{Lambda: 3, MemoryPages: 120, Delta: 0.9},                 // large accumulator reservation
	}
	for _, weighting := range []document.Weighting{document.RawTF, document.Cosine, document.TFIDF} {
		for _, base := range optsList {
			opts := base
			opts.Weighting = weighting
			serial, serialStats, err := Join(HVNL, build(), opts)
			if err != nil {
				if errors.Is(err, ErrInsufficientMemory) {
					continue
				}
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				par, parStats, err := joinAt(HVNL, build(), opts, workers)
				if err != nil {
					t.Fatalf("%v workers=%d: %v", weighting, workers, err)
				}
				if err := sameResults(serial, par); err != nil {
					t.Fatalf("%v workers=%d opts %+v: %v", weighting, workers, opts, err)
				}
				sameHVNLStats(t, weighting.String(), serialStats, parStats)
			}
		}
	}
}

// TestHVNLParallelSubset joins a scattered selection subset, serial and
// parallel, against the brute-force reference.
func TestHVNLParallelSubset(t *testing.T) {
	subsetIDs := []uint32{1, 2, 6, 9, 16, 23, 24, 40, 43}
	build := func() Inputs {
		e := buildEnv(t, 62, 38, 44, 58, 13, 128)
		sub, err := e.c2.Subset(subsetIDs)
		if err != nil {
			t.Fatal(err)
		}
		return Inputs{Outer: sub, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
	}
	refIn := build()
	scorer, err := refIn.scorer(Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, refIn.Outer, refIn.Inner, 4, scorer)
	for _, opts := range []Options{
		{Lambda: 4, MemoryPages: 4000},
		{Lambda: 4, MemoryPages: 50},
	} {
		serial, serialStats, err := Join(HVNL, build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(want, serial); err != nil {
			t.Fatalf("serial opts %+v: %v", opts, err)
		}
		for _, workers := range []int{2, 7} {
			par, parStats, err := joinAt(HVNL, build(), opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(want, par); err != nil {
				t.Fatalf("parallel workers=%d opts %+v: %v", workers, opts, err)
			}
			sameHVNLStats(t, "subset", serialStats, parStats)
		}
	}
}

// TestQuickHVNLParallelEqual property-tests parallel HVNL against serial
// on random corpora, random cache budgets, random worker counts and
// random subsets. The corpus, options and worker count all derive
// deterministically from the seed, so serial and parallel runs see
// identical freshly built environments.
func TestQuickHVNLParallelEqual(t *testing.T) {
	check := func(seed int64, pages16 uint16, subset bool) bool {
		build := func() (Inputs, Options, int) {
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
			opts := Options{Lambda: r.Intn(5) + 1, MemoryPages: int64(pages16%200) + 20}
			workers := r.Intn(7) + 1
			return in, opts, workers
		}
		in, opts, workers := build()
		serial, serialStats, err := Join(HVNL, in, opts)
		if err != nil {
			// A tiny budget may be legitimately insufficient; the parallel
			// variant must agree.
			if !errors.Is(err, ErrInsufficientMemory) {
				t.Fatal(err)
			}
			in, opts, _ = build()
			_, _, perr := joinAt(HVNL, in, opts, 2)
			return errors.Is(perr, ErrInsufficientMemory)
		}
		in, opts, _ = build()
		par, parStats, err := joinAt(HVNL, in, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if sameResults(serial, par) != nil {
			return false
		}
		return parStats.IO == serialStats.IO &&
			parStats.Cache == serialStats.Cache &&
			parStats.EntryFetches == serialStats.EntryFetches &&
			parStats.Accumulations == serialStats.Accumulations &&
			parStats.PeakMemoryBytes == serialStats.PeakMemoryBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
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
