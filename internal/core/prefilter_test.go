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

// pfVariants are the families that honor Options.Prefilter at every
// harness worker count, plus VVM, which must ignore it and still agree.
func pfVariants() []diffVariant {
	var vs []diffVariant
	for _, v := range diffVariants() {
		if v.alg == HHNL || v.alg == HVNL || (v.alg == VVM && v.workers == 0) {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestDifferentialPrefilter runs the full prefilter axis: on every
// shape, every prefilter-aware variant under every code must equal the
// unfiltered serial HHNL baseline exactly.
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
				for _, v := range pfVariants() {
					e := buildDiffEnv(t, shape, 1)
					opts := shape.options()
					opts.Prefilter = buildTestPrefilter(t, e, cfg)
					got, st, err := v.run(e.inputs(), opts)
					if err != nil {
						t.Fatalf("cfg%d/%s: %v", ci, v.name, err)
					}
					if err := sameResults(want, got); err != nil {
						t.Errorf("cfg%d/%s differs from unfiltered baseline: %v", ci, v.name, err)
					}
					if v.alg != VVM && !st.Prefilter.Enabled {
						t.Errorf("cfg%d/%s: prefilter stats not marked enabled", ci, v.name)
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

// TestPrefilterStatsParity pins the coordinator-side design: every
// prefilter decision is made on the coordinator and every document is
// counted exactly once, so PrefilterStats at any worker count must equal
// the inline run's byte for byte.
func TestPrefilterStatsParity(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for _, alg := range []Algorithm{HHNL, HVNL} {
				var inline PrefilterStats
				for _, w := range []int{0, 2, 7} {
					e := buildDiffEnv(t, shape, 1)
					opts := shape.options()
					opts.Prefilter = buildTestPrefilter(t, e, signature.Config{})
					_, st, err := joinAt(alg, e.inputs(), opts, w)
					if err != nil {
						t.Fatalf("%v w%d: %v", alg, w, err)
					}
					if w == 0 {
						inline = st.Prefilter
					} else if st.Prefilter != inline {
						t.Errorf("%v w%d prefilter stats diverge:\ninline %+v\nfanned %+v", alg, w, inline, st.Prefilter)
					}
				}
			}
		})
	}
}
