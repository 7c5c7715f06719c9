package core

import (
	"math"
	"math/rand"
	"testing"

	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
)

// TestPlannerRecallSLOContract is the property test pinning the
// planner's recall contract across seeds, memory budgets and the whole
// SLO range:
//
//   - SLO 0 (unset) and SLO 1 never choose LSH — approximation is an
//     explicit opt-in, and no banding shape promises recall 1;
//   - whenever an exact algorithm is chosen, EstimatedRecall is exactly 1;
//   - whenever LSH is chosen, EstimatedRecall meets the SLO, lies in
//     (0, 1), and matches the AlgLSH estimate the Decision records.
func TestPlannerRecallSLOContract(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 4; seed++ {
		e := buildEnv(t, seed, 60, 50, 80, 10, 256)
		sc := buildDiffLSH(t, e, lsh.Config{})
		for _, mem := range []int64{40, 120, 400} {
			for slo := 0.0; slo <= 1.0; slo += 0.05 {
				// Perturb the grid so the sweep is not only round numbers.
				s := slo
				if s > 0 && s < 1 {
					s += (r.Float64() - 0.5) * 0.04
				}
				opts := Options{Lambda: 4, MemoryPages: mem, LSH: sc, RecallSLO: s}
				dec, err := Plan(Auto, e.inputs(), opts)
				if err != nil {
					t.Fatalf("seed %d mem %d slo %v: %v", seed, mem, s, err)
				}
				if (s == 0 || s == 1) && dec.Chosen == LSH {
					t.Fatalf("seed %d mem %d: SLO %v chose LSH — must stay exact", seed, mem, s)
				}
				if dec.Chosen != LSH {
					if dec.EstimatedRecall != 1 {
						t.Fatalf("seed %d mem %d slo %v: exact plan %v with EstimatedRecall %v, want 1",
							seed, mem, s, dec.Chosen, dec.EstimatedRecall)
					}
					continue
				}
				if dec.EstimatedRecall < s || dec.EstimatedRecall <= 0 || dec.EstimatedRecall >= 1 {
					t.Fatalf("seed %d mem %d: LSH chosen at SLO %v with EstimatedRecall %v",
						seed, mem, s, dec.EstimatedRecall)
				}
				found := false
				for _, est := range dec.Estimates {
					if est.Algorithm == costmodel.AlgLSH {
						found = true
						if est.Recall != dec.EstimatedRecall {
							t.Fatalf("decision recall %v does not match its AlgLSH estimate %v",
								dec.EstimatedRecall, est.Recall)
						}
					} else if est.Recall != 0 {
						t.Fatalf("exact estimate %v carries recall %v, want 0", est.Algorithm, est.Recall)
					}
				}
				if !found {
					t.Fatal("LSH chosen but Decision records no AlgLSH estimate")
				}
			}
		}
	}
}

// TestPlannerChoosesLSHWhenCheaper anchors the contract test against
// vacuity: on a corpus built to favor approximation — a large, mostly
// dissimilar inner collection forcing many outer batches, no inverted
// files (so only HHNL competes), and a tight memory budget — the planner
// must actually pick LSH under a satisfiable SLO, and must fall back to
// exact when the SLO demands recall the banding cannot promise.
func TestPlannerChoosesLSHWhenCheaper(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := iosim.NewDisk(iosim.WithPageSize(256))
	sparse := func(n, base int) []*document.Document {
		docs := make([]*document.Document, n)
		for i := range docs {
			counts := make(map[uint32]int)
			for j := 0; j < 8; j++ {
				counts[uint32(base+r.Intn(20000))]++
			}
			docs[i] = document.New(uint32(i), counts)
		}
		return docs
	}
	c1 := buildColl(t, d, "c1", sparse(400, 0))
	c2 := buildColl(t, d, "c2", sparse(600, 0))
	e := &env{disk: d, c1: c1, c2: c2}
	sc := buildDiffLSH(t, e, lsh.Config{Bands: 8, Rows: 1})

	in := Inputs{Outer: e.c2, Inner: e.c1} // no inverted files: HHNL vs LSH
	opts := Options{Lambda: 3, MemoryPages: 24, LSH: sc, RecallSLO: 0.9}
	dec, err := Plan(Auto, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen != LSH {
		t.Fatalf("favorable setup chose %v, want LSH; estimates: %+v", dec.Chosen, dec.Estimates)
	}
	if dec.EstimatedRecall < 0.9 {
		t.Fatalf("EstimatedRecall %v below the 0.9 SLO", dec.EstimatedRecall)
	}

	// An SLO above what 8×1 banding can promise at the default match
	// similarity must push the planner back to exact.
	promised := costmodel.Recall(8, 1, costmodel.DefaultMatchSim)
	opts.RecallSLO = math.Nextafter(promised, 1)
	dec, err = Plan(Auto, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == LSH {
		t.Fatalf("SLO %v above promised recall %v still chose LSH", opts.RecallSLO, promised)
	}
	if dec.EstimatedRecall != 1 {
		t.Fatalf("exact fallback EstimatedRecall = %v, want 1", dec.EstimatedRecall)
	}

	// End to end: the integrated join runs the approximate plan and its
	// Stats carry the LSH section.
	opts.RecallSLO = 0.9
	_, stats, dec2, err := JoinIntegrated(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Chosen != LSH || stats.Algorithm != LSH || !stats.LSH.Enabled {
		t.Fatalf("integrated run: chosen %v, stats %+v", dec2.Chosen, stats)
	}
}
