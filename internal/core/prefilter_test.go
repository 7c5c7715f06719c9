package core

import (
	"fmt"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/signature"
)

// This file holds the prefilter's helpers; the conformance matrix holds
// every prefiltered join to the reference under
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
