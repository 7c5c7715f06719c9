package core

import (
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/signature"
)

// This file extends the differential harness to the prefilter axis:
// every prefilter-aware entry point, serial and parallel, must return
// results byte-identical to the unfiltered serial HHNL baseline on
// every shape — including under deliberately tiny codes whose false
// positives stress the skip-never-admit invariant from both sides.

// pfTestConfigs are the signature codes the harness runs under: the
// defaults, a tiny saturating code (maximal false passes — pruning must
// degrade to a no-op, never to a wrong answer), and an odd-shaped code
// exercising rounding, bucketing and small clusters.
func pfTestConfigs() []signature.Config {
	return []signature.Config{
		{},
		{Bits: 64, Hashes: 1},
		{Bits: 100, Hashes: 3, Granularity: 7, ClusterDocs: 3},
	}
}

// buildTestPrefilter builds both sidecars on the env's disk and resets
// the I/O counters so the measured join starts clean, like buildDiffEnv.
func buildTestPrefilter(tb testing.TB, e *env, cfg signature.Config) *Prefilter {
	tb.Helper()
	build := func(coll *collection.Collection) *signature.Sidecar {
		tb.Helper()
		f, err := e.disk.Create(coll.Name() + ".sig")
		if err != nil {
			tb.Fatal(err)
		}
		sc, err := signature.Build(coll, f, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return sc
	}
	pf := &Prefilter{Inner: build(e.c1), Outer: build(e.c2)}
	e.disk.ResetStats()
	return pf
}

// TestDifferentialPrefilter runs the full prefilter axis: on every
// shape, HHNL and HVNL, which honor Options.Prefilter, and VVM, which must
// ignore it, must equal the unfiltered HHNL baseline exactly under every
// code.
func TestDifferentialPrefilter(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			want, _, err := Join(HHNL, baseEnv.inputs(), shape.options())
			if err != nil {
				t.Fatalf("baseline HHNL: %v", err)
			}
			for ci, cfg := range pfTestConfigs() {
				for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
					e := buildDiffEnv(t, shape, 1)
					opts := shape.options()
					opts.Prefilter = buildTestPrefilter(t, e, cfg)
					got, st, err := Join(alg, e.inputs(), opts)
					if err != nil {
						t.Fatalf("cfg%d/%v: %v", ci, alg, err)
					}
					if err := sameResults(want, got); err != nil {
						t.Errorf("cfg%d/%v differs from unfiltered baseline: %v", ci, alg, err)
					}
					if alg != VVM && !st.Prefilter.Enabled {
						t.Errorf("cfg%d/%v: prefilter stats not marked enabled", ci, alg)
					}
				}
			}
		})
	}
}

// TestPrefilterSubsetOuter covers the selection path: with a Subset
// outer reader, the prefilter tests each selected id against the inner
// root and saves the skipped ids' random fetches, with results
// identical to the unfiltered run. The on-the-fly path (no outer
// sidecar) is exercised in the same sweep.
func TestPrefilterSubsetOuter(t *testing.T) {
	for _, shape := range diffShapes()[:3] {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			baseSub, err := baseEnv.c2.Subset([]uint32{1, 3, 7, 11, 13})
			if err != nil {
				t.Fatal(err)
			}
			baseIn := baseEnv.inputs()
			baseIn.Outer = baseSub
			want, _, err := Join(HVNL, baseIn, shape.options())
			if err != nil {
				t.Fatal(err)
			}
			for _, withOuter := range []bool{true, false} {
				e := buildDiffEnv(t, shape, 1)
				sub, err := e.c2.Subset([]uint32{1, 3, 7, 11, 13})
				if err != nil {
					t.Fatal(err)
				}
				in := e.inputs()
				in.Outer = sub
				opts := shape.options()
				opts.Prefilter = buildTestPrefilter(t, e, signature.Config{})
				if !withOuter {
					opts.Prefilter.Outer = nil
				}
				got, st, err := Join(HVNL, in, opts)
				if err != nil {
					t.Fatalf("outer=%v: %v", withOuter, err)
				}
				if err := sameResults(want, got); err != nil {
					t.Errorf("outer=%v differs from unfiltered subset join: %v", withOuter, err)
				}
				if !st.Prefilter.Enabled {
					t.Errorf("outer=%v: prefilter stats not marked enabled", withOuter)
				}
			}
		})
	}
}

// TestPrefilterStatsParity pins HVNL's prefilter accounting across its
// three outer paths: a filtered scan planned from the outer sidecar, the
// same sidecar over a selection of every id, and signatures computed on
// the fly. Cluster and page aggregates are supersets of the document
// signatures, so all three skip exactly the documents whose own signature
// is disjoint from the inner root: DocsSkipped, FalsePasses and the
// results must agree.
func TestPrefilterStatsParity(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var scan PrefilterStats
			var want []Result
			for _, path := range []string{"scan", "subset", "on-the-fly"} {
				e := buildDiffEnv(t, shape, 1)
				in := e.inputs()
				opts := shape.options()
				opts.Prefilter = buildTestPrefilter(t, e, signature.Config{})
				switch path {
				case "subset":
					ids := make([]uint32, e.c2.NumDocs())
					for i := range ids {
						ids[i] = uint32(i)
					}
					sub, err := e.c2.Subset(ids)
					if err != nil {
						t.Fatal(err)
					}
					in.Outer = sub
				case "on-the-fly":
					opts.Prefilter.Outer = nil
				}
				got, st, err := Join(HVNL, in, opts)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if path == "scan" {
					scan, want = st.Prefilter, got
					continue
				}
				if st.Prefilter.DocsSkipped != scan.DocsSkipped || st.Prefilter.FalsePasses != scan.FalsePasses {
					t.Errorf("%s: %d documents skipped, %d false passes; the filtered scan has %d and %d",
						path, st.Prefilter.DocsSkipped, st.Prefilter.FalsePasses, scan.DocsSkipped, scan.FalsePasses)
				}
				if err := exactSameResults(want, got); err != nil {
					t.Errorf("%s: %v", path, err)
				}
			}
		})
	}
}
