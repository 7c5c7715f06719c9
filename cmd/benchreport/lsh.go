package main

import (
	"fmt"
	"io"
	"math"

	"textjoin"
)

// The LSH cells chart the recall-vs-speed frontier of the approximate
// MinHash/banding join against exact ground truth. They run on the
// clustered corpora — the regime where candidate generation can skip
// whole page runs — under every banding shape of lshGridConfigs. Each
// LSH cell's recall is *measured*: the exact HHNL result set of the same
// shape is the ground-truth pair set, and recall is the fraction of
// those pairs the approximate join returned. The run itself fails unless
// the frontier meets the floor the baseline was accepted under: at least
// one cell with recall ≥ 0.9 at no more than half the page reads of the
// best exact cell.

// lshRecallFloor and lshSpeedupFloor are the acceptance gate: some cell
// must reach this recall while reading at most 1/lshSpeedupFloor of the
// best exact join's pages.
const (
	lshRecallFloor  = 0.9
	lshSpeedupFloor = 2.0
)

// lshGridConfigs returns the banding shapes of the frontier, ordered
// from cheap-and-lossy to candidate-heavy-and-near-exact. Rows per band
// sharpen the S-curve (fewer low-similarity candidates, lower recall);
// bands buy recall back at the cost of more bucket collisions.
func lshGridConfigs() []textjoin.LSHConfig {
	return []textjoin.LSHConfig{
		{Bands: 8, Rows: 1},
		{Bands: 16, Rows: 1},
		{Bands: 32, Rows: 1},
		{Bands: 64, Rows: 1},
		{Bands: 32, Rows: 2},
	}
}

func lshAlgName(cfg textjoin.LSHConfig) string {
	return fmt.Sprintf("LSH-b%dr%d", cfg.Bands, cfg.Rows)
}

// lshPair is one (outer, inner) match used for the recall measurement.
type lshPair struct{ outer, inner uint32 }

func lshPairSet(results []textjoin.Result) map[lshPair]bool {
	set := make(map[lshPair]bool)
	for _, r := range results {
		for _, m := range r.Matches {
			set[lshPair{r.Outer, m.Doc}] = true
		}
	}
	return set
}

// lshMeasuredRecall is |got ∩ truth| / |truth|; an empty truth set makes
// recall trivially 1.
func lshMeasuredRecall(got []textjoin.Result, truth map[lshPair]bool) float64 {
	if len(truth) == 0 {
		return 1
	}
	hits := 0
	for _, r := range got {
		for _, m := range r.Matches {
			if truth[lshPair{r.Outer, m.Doc}] {
				hits++
			}
		}
	}
	return float64(hits) / float64(len(truth))
}

// runLSHCells appends one clustered shape's LSH cells to the report:
// every banding shape over the shape's one workspace. Recall is measured
// against truth, the shape's exact pair set. The sidecar file name is
// fixed per collection, so each banding shape's file is removed before
// the next is built; the join only ever touches the memory-resident
// handle.
func runLSHCells(env *shapeEnv, shapeName string, cfg BenchConfig, truth map[lshPair]bool, report *Report) error {
	for _, lcfg := range lshGridConfigs() {
		label := lshAlgName(lcfg)
		sc, err := env.ws.BuildLSH(env.c1, lcfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %v", shapeName, label, err)
		}
		if err := env.ws.Disk().Remove(env.c1.Name() + ".lsh"); err != nil {
			return fmt.Errorf("%s/%s: %v", shapeName, label, err)
		}
		env.ws.ResetIOStats()
		opts := env.options(cfg)
		opts.LSH = sc
		cell, results, err := runCell(env, shapeName, label, textjoin.LSH, opts)
		if err != nil {
			return err
		}
		cell.Recall = lshMeasuredRecall(results, truth)
		report.Cells = append(report.Cells, cell)
	}
	return nil
}

// bestExactReads returns, per shape, the fewest page reads of any exact
// cell run without the prefilter: what the frontier gate and the
// summary measure the LSH cells against.
func bestExactReads(cells []Cell) map[string]int64 {
	best := map[string]int64{}
	for _, c := range cells {
		if c.isLSH() || c.isPrefiltered() {
			continue
		}
		reads := c.SeqReads + c.RandReads
		if cur, ok := best[c.Shape]; !ok || reads < cur {
			best[c.Shape] = reads
		}
	}
	return best
}

// checkFrontier is the gate the baseline was accepted under: some LSH
// cell must reach lshRecallFloor while reading at most
// 1/lshSpeedupFloor of its shape's best exact pages.
func checkFrontier(cells []Cell) error {
	best := bestExactReads(cells)
	for _, c := range cells {
		if c.isLSH() && c.Recall >= lshRecallFloor &&
			float64(c.SeqReads+c.RandReads)*lshSpeedupFloor <= float64(best[c.Shape]) {
			return nil
		}
	}
	return fmt.Errorf("frontier gate failed: no cell reached recall ≥ %.2f at ≤ 1/%.0f of the best exact page reads",
		lshRecallFloor, lshSpeedupFloor)
}

// writeLSHSummary renders the recall-vs-speed frontier: per shape, the
// best exact page-read count, then every banding shape's measured recall
// and read reduction against it.
func writeLSHSummary(w io.Writer, r *Report) {
	bestExact := bestExactReads(r.Cells)
	for _, c := range r.Cells {
		if !c.isLSH() {
			continue
		}
		br := bestExact[c.Shape]
		reads := c.SeqReads + c.RandReads
		speedup := math.Inf(1)
		if reads > 0 {
			speedup = float64(br) / float64(reads)
		}
		fmt.Fprintf(w, "%-14s %-9s recall %.4f: page reads %d vs best exact %d (%.1f× fewer; %d probes, %d candidates, %d pages skipped)\n",
			c.Shape, c.Algorithm, c.Recall, reads, br, speedup,
			c.BucketProbes, c.Candidates, c.PagesSkipped)
	}
}
