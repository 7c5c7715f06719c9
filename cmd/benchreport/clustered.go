package main

import (
	"fmt"
	"io"
	"strings"

	"textjoin"
	"textjoin/internal/corpus"
)

// The clustered shapes measure the signature + cluster pruning layer
// and the approximate LSH join (lsh.go) on corpora where they can act:
// planted-topic collections run through the cluster-driven build path
// (greedy reorder → signature sidecar → id-remapped inverted file). Each
// (shape, algorithm) pair is run twice — prefilter off and on — and the
// run itself fails unless the two result hashes are identical:
// the baseline file cannot even be generated from a filter that changes
// results. The off cells double as the LSH cells' exact ground truth.

// pfShape is one clustered pairing of the grid.
type pfShape struct {
	name             string
	n1, n2           int64
	termsPerDoc      float64
	vocab1, vocab2   int64
	topics1, topics2 int
}

// pfShapes returns the clustered pairings: a self-similar pair
// of equal vocabularies (inner-scan pruning carries HHNL) and a pair
// where the outer vocabulary is four times wider, so three quarters of
// the outer documents are provably disjoint from the inner collection
// (outer-sweep pruning carries HVNL).
func pfShapes() []pfShape {
	return []pfShape{
		{"clustered-eq", 512, 512, 64, 16384, 16384, 16, 16},
		{"clustered-wide", 512, 512, 64, 16384, 65536, 4, 16},
	}
}

// pfSigConfig is the signature code of the "+pf" cells. One hash over
// coarse term buckets keeps the page and cluster aggregates sparse
// enough that topically distinct regions stay distinguishable.
func pfSigConfig() textjoin.SignatureConfig {
	return textjoin.SignatureConfig{Bits: 2048, Hashes: 1, Granularity: 512, ClusterDocs: 16}
}

// buildClusteredShape builds one clustered workspace: the inner
// collection is generated scattered and then rebuilt through the full
// clustered layout (reorder, sidecar, remapped inverted file); the
// outer collection is stored topic-contiguously so HHNL batches stay
// topically narrow.
func buildClusteredShape(sh pfShape, cfg BenchConfig) (*shapeEnv, *textjoin.Prefilter, error) {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(cfg.Alpha))
	gen := func(name string, n, vocab int64, topics int, scatter bool, seed int64) (*textjoin.Collection, error) {
		f, err := ws.Disk().Create(name)
		if err != nil {
			return nil, err
		}
		p := corpus.ClusteredProfile{
			Profile:       corpus.Profile{Name: name, NumDocs: n, TermsPerDoc: sh.termsPerDoc, DistinctTerms: vocab},
			Topics:        topics,
			TopicFraction: 1.0,
			Scatter:       scatter,
		}
		return corpus.GenerateClustered(p, seed, f)
	}
	src, err := gen("c1src", sh.n1, sh.vocab1, sh.topics1, true, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	srcInv, err := ws.BuildInvertedFile(src)
	if err != nil {
		return nil, nil, err
	}
	lay, err := ws.BuildClusteredLayout("c1", src, srcInv, pfSigConfig())
	if err != nil {
		return nil, nil, err
	}
	c2, err := gen("c2", sh.n2, sh.vocab2, sh.topics2, false, cfg.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		return nil, nil, err
	}
	sig2, err := ws.BuildSignatures(c2, pfSigConfig())
	if err != nil {
		return nil, nil, err
	}
	if _, err := lay.InvertedFile.LoadIndex(); err != nil {
		return nil, nil, err
	}
	if _, err := inv2.LoadIndex(); err != nil {
		return nil, nil, err
	}
	ws.ResetIOStats()
	env := &shapeEnv{ws: ws, c1: lay.Collection, c2: c2, inv1: lay.InvertedFile, inv2: inv2}
	return env, &textjoin.Prefilter{Inner: lay.Signatures, Outer: sig2}, nil
}

// The clustered cells' memory budgets are pinned whatever -mem says:
// 8 pages for HHNL and LSH, so a batch spans few topics (the regime the
// pruning targets), 64 for HVNL, whose resident B+tree index alone needs
// more than 8.
const (
	clusteredPages     = 8
	clusteredHVNLPages = 64
)

// runClustered appends the clustered shapes' cells to the report, each
// shape built once: the exact cells off and on, gated on exact
// result-hash equality, then the LSH cells (lsh.go) measured against the
// HHNL result as ground truth. It fails unless the LSH cells meet
// the frontier gate.
func runClustered(cfg BenchConfig, report *Report) error {
	cfg.MemoryPages = clusteredPages
	for _, sh := range pfShapes() {
		env, pf, err := buildClusteredShape(sh, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", sh.name, err)
		}
		var truth map[lshPair]bool
		for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL} {
			cfg := cfg
			if alg == textjoin.HVNL {
				cfg.MemoryPages = clusteredHVNLPages
			}
			opts := env.options(cfg)
			off, results, err := runCell(env, sh.name, alg.String(), alg, opts)
			if err != nil {
				return err
			}
			opts.Prefilter = pf
			on, _, err := runCell(env, sh.name, alg.String()+"+pf", alg, opts)
			if err != nil {
				return err
			}
			if on.ResultsHash != off.ResultsHash {
				return fmt.Errorf("%s: prefilter changed results: hash %s (on) vs %s (off)",
					off.key(), on.ResultsHash, off.ResultsHash)
			}
			report.Cells = append(report.Cells, off, on)
			if alg == textjoin.HHNL {
				truth = lshPairSet(results)
			}
		}
		if err := runLSHCells(env, sh.name, cfg, truth, report); err != nil {
			return err
		}
	}
	return checkFrontier(report.Cells)
}

// writePrefilterSummary appends the pruning outcome per on/off pair:
// the page-read reduction the filter bought and the skip counters.
func writePrefilterSummary(w io.Writer, r *Report) {
	off := map[string]Cell{}
	for _, c := range r.Cells {
		if !c.isPrefiltered() {
			off[c.key()] = c
		}
	}
	for _, c := range r.Cells {
		if !c.isPrefiltered() {
			continue
		}
		alg := strings.TrimSuffix(c.Algorithm, "+pf")
		base, ok := off[c.Shape+"/"+alg]
		if !ok {
			continue
		}
		br := base.SeqReads + base.RandReads
		cr := c.SeqReads + c.RandReads
		var red float64
		if br > 0 {
			red = 100 * (1 - float64(cr)/float64(br))
		}
		fmt.Fprintf(w, "%-14s %s: page reads %d → %d (%.1f%% fewer; skipped %d pages, %d clusters, %d docs; %d false passes)\n",
			c.Shape, alg, br, cr, red,
			c.PagesSkipped, c.ClustersSkipped, c.DocsSkipped, c.FalsePasses)
	}
}
