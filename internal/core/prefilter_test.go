package core

import (
	"fmt"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/signature"
)

// This file holds the prefilter's helpers and its accounting test; the
// conformance matrix holds every prefiltered join to the reference under
// each of the codes below — including deliberately tiny codes whose false
// positives stress the skip-never-admit invariant from both sides.

// pfTestConfigs are the signature codes the matrix runs under: the
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

// buildTestPrefilter builds both sidecars on the env's disk, in files
// named by the code so that one disk can hold several, and resets the I/O
// counters so the measured join starts clean, like buildDiffEnv.
func buildTestPrefilter(tb testing.TB, e *env, cfg signature.Config) *Prefilter {
	tb.Helper()
	build := func(coll *collection.Collection) *signature.Sidecar {
		tb.Helper()
		f, err := e.disk.Create(fmt.Sprintf("%s.%v.sig", coll.Name(), cfg))
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
