package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"textjoin"
	"textjoin/internal/costmodel"
)

// BenchConfig fixes every input of the experiment grid; two runs with
// the same config produce byte-identical reports.
type BenchConfig struct {
	Scale       int64   `json:"scale"`
	Seed        int64   `json:"seed"`
	MemoryPages int64   `json:"memory_pages"`
	Lambda      int     `json:"lambda"`
	Alpha       float64 `json:"alpha"`
}

func defaultBenchConfig() BenchConfig {
	return BenchConfig{Scale: 256, Seed: 1, MemoryPages: 256, Lambda: 5, Alpha: 5}
}

// shape is one collection pairing of the grid.
type shape struct {
	name   string
	p1, p2 string
}

// shapes returns the grid's collection pairings: the paper's three
// self-joins plus one cross-collection join.
func shapes() []shape {
	return []shape{
		{"wsj-wsj", "wsj", "wsj"},
		{"fr-fr", "fr", "fr"},
		{"doe-doe", "doe", "doe"},
		{"wsj-fr", "wsj", "fr"},
	}
}

// Cell is one grid measurement. All fields come from the deterministic
// simulated store; none is wall-clock derived.
type Cell struct {
	Shape         string  `json:"shape"`
	Algorithm     string  `json:"alg"`
	SeqReads      int64   `json:"seq_reads"`
	RandReads     int64   `json:"rand_reads"`
	Cost          float64 `json:"cost"`
	Comparisons   int64   `json:"comparisons"`
	Accumulations int64   `json:"accumulations"`
	EntryFetches  int64   `json:"entry_fetches"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// Prefilter counters; only the clustered shapes' "+pf" cells carry
	// non-zero values.
	PagesSkipped    int64 `json:"pages_skipped,omitempty"`
	ClustersSkipped int64 `json:"clusters_skipped,omitempty"`
	DocsSkipped     int64 `json:"docs_skipped,omitempty"`
	FalsePasses     int64 `json:"false_passes,omitempty"`
	// Approximate-join fields; only the clustered shapes' "LSH-b*r*"
	// cells carry non-zero values (their skip counts land in
	// PagesSkipped and DocsSkipped). Recall is measured against the exact
	// ground-truth pair set of the same shape, not estimated.
	Recall       float64 `json:"recall,omitempty"`
	BucketProbes int64   `json:"bucket_probes,omitempty"`
	Candidates   int64   `json:"candidates,omitempty"`
	// ResultsHash fingerprints the full result set, so the baseline
	// comparison also catches correctness regressions.
	ResultsHash string `json:"results_hash"`
}

func (c Cell) key() string { return c.Shape + "/" + c.Algorithm }

// A cell's kind is read off its algorithm label: "<alg>+pf" ran with
// the signature prefilter, "LSH-b<bands>r<rows>" is an approximate join.
func (c Cell) isPrefiltered() bool { return strings.HasSuffix(c.Algorithm, "+pf") }
func (c Cell) isLSH() bool         { return strings.HasPrefix(c.Algorithm, "LSH-") }

// IntegratedCell records the planner's behaviour on one shape: the
// estimates it ranked, its choice, and the measured cost of that choice.
type IntegratedCell struct {
	Shape     string             `json:"shape"`
	Chosen    string             `json:"chosen"`
	Estimates map[string]float64 `json:"estimates"`
	Measured  float64            `json:"measured"`
}

// CalibrationSample is one estimated-vs-measured observation in the JSON
// report (costmodel.Sample with the algorithm as a string).
type CalibrationSample struct {
	Label     string  `json:"label"`
	Algorithm string  `json:"alg"`
	Estimated float64 `json:"estimated"`
	Measured  float64 `json:"measured"`
}

// CalibrationReport is the cost-model audit section of the report.
type CalibrationReport struct {
	Samples []CalibrationSample `json:"samples"`
	// PlannerSamples pair, per integrated run, the planner's estimate
	// for the plan it chose with that run's own measured cost, in whole
	// page units — what a live planner sees of itself, next to the
	// full-grid Samples above.
	PlannerSamples []CalibrationSample `json:"planner_samples"`
	Mispicks       []Mispick           `json:"mispicks"`
}

// Mispick is one shape where the estimated and the measured ranking
// disagree about the winner (costmodel.Mispick with string algorithms).
type Mispick struct {
	Label         string  `json:"label"`
	EstimatedBest string  `json:"estimated_best"`
	MeasuredBest  string  `json:"measured_best"`
	Penalty       float64 `json:"penalty"`
}

// calibration rebuilds the aggregation from the serialized samples.
func (c *CalibrationReport) calibration() (*costmodel.Calibration, error) {
	cal := costmodel.NewCalibration(nil)
	for _, s := range c.Samples {
		alg, err := parseModelAlg(s.Algorithm)
		if err != nil {
			return nil, err
		}
		if err := cal.Add(costmodel.Sample{Label: s.Label, Algorithm: alg, Estimated: s.Estimated, Measured: s.Measured}); err != nil {
			return nil, err
		}
	}
	return cal, nil
}

func (c *CalibrationReport) writeReport(w io.Writer) error {
	cal, err := c.calibration()
	if err != nil {
		return err
	}
	return cal.WriteReport(w)
}

func parseModelAlg(s string) (costmodel.Algorithm, error) {
	for _, a := range []costmodel.Algorithm{costmodel.AlgHHNL, costmodel.AlgHVNL, costmodel.AlgVVM} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// Report is the complete observatory output.
type Report struct {
	Version     int               `json:"version"`
	Config      BenchConfig       `json:"config"`
	Cells       []Cell            `json:"cells"`
	Integrated  []IntegratedCell  `json:"integrated"`
	Calibration CalibrationReport `json:"calibration"`
}

// runGrid executes the one experiment grid: the paper's pairings under
// every exact algorithm with the planner's view and the cost-model audit
// of each, then the clustered pairings with their prefilter and LSH
// cells (clustered.go).
func runGrid(cfg BenchConfig) (*Report, error) {
	report := &Report{Version: 1, Config: cfg}
	cr := &report.Calibration

	for _, sh := range shapes() {
		env, err := buildShape(sh, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sh.name, err)
		}

		// Measured cost of every algorithm.
		measured := map[string]float64{}
		for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL, textjoin.VVM} {
			cell, _, err := runCell(env, sh.name, alg.String(), alg, env.options(cfg))
			if err != nil {
				return nil, err
			}
			report.Cells = append(report.Cells, cell)
			measured[alg.String()] = cell.Cost
		}

		// The planner's view of the same shape.
		ic, samples, plan, err := runIntegrated(env, cfg, sh.name, measured)
		if err != nil {
			return nil, fmt.Errorf("%s: integrated: %v", sh.name, err)
		}
		report.Integrated = append(report.Integrated, ic)
		cr.Samples = append(cr.Samples, samples...)
		cr.PlannerSamples = append(cr.PlannerSamples, plan)
	}

	cal, err := cr.calibration()
	if err != nil {
		return nil, err
	}
	for _, m := range cal.Mispicks() {
		cr.Mispicks = append(cr.Mispicks, Mispick{m.Label, m.EstimatedBest.String(), m.MeasuredBest.String(), m.Penalty})
	}

	if err := runClustered(cfg, report); err != nil {
		return nil, err
	}
	return report, nil
}

// shapeEnv is one built workspace of the grid.
type shapeEnv struct {
	ws         *textjoin.Workspace
	c1, c2     *textjoin.Collection
	inv1, inv2 *textjoin.InvertedFile
	tel        *textjoin.Telemetry
}

func buildShape(sh shape, cfg BenchConfig) (*shapeEnv, error) {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(cfg.Alpha))
	c1, err := ws.GenerateProfile("c1", sh.p1, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c2, err := ws.GenerateProfile("c2", sh.p2, cfg.Scale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		return nil, err
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		return nil, err
	}
	// Warm the one-time B+tree loads during the build phase. LoadIndex is
	// idempotent, so without this the first HVNL cell would pay the tree
	// read and later cells would not, making cells order-dependent.
	if _, err := inv1.LoadIndex(); err != nil {
		return nil, err
	}
	if _, err := inv2.LoadIndex(); err != nil {
		return nil, err
	}
	tel := textjoin.NewTelemetry()
	ws.ResetIOStats()
	ws.SetTelemetry(tel)
	return &shapeEnv{ws: ws, c1: c1, c2: c2, inv1: inv1, inv2: inv2, tel: tel}, nil
}

func (e *shapeEnv) inputs() textjoin.Inputs {
	return textjoin.Inputs{Outer: e.c2, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
}

func (e *shapeEnv) options(cfg BenchConfig) textjoin.Options {
	return textjoin.Options{Lambda: cfg.Lambda, MemoryPages: cfg.MemoryPages, Telemetry: e.tel}
}

// runCell measures one grid point: alg under opts on the shape, filed
// under label (the algorithm's name, plus "+pf" when opts offers the
// signature sidecars, or the banding shape for LSH). The raw results are
// returned alongside the cell so the LSH cells' ground truth needs no
// second, head-position-dependent run.
func runCell(env *shapeEnv, shapeName, label string, alg textjoin.Algorithm, opts textjoin.Options) (Cell, []textjoin.Result, error) {
	// Park the heads so each cell's sequential/random classification is
	// independent of where the previous cell finished.
	env.ws.ParkHeads()
	results, stats, err := textjoin.Join(alg, env.inputs(), opts)
	if err != nil {
		return Cell{}, nil, fmt.Errorf("%s/%s: %v", shapeName, label, err)
	}
	cell := Cell{
		Shape:           shapeName,
		Algorithm:       label,
		SeqReads:        stats.IO.SeqReads,
		RandReads:       stats.IO.RandReads,
		Cost:            stats.Cost,
		Comparisons:     stats.Comparisons,
		Accumulations:   stats.Accumulations,
		EntryFetches:    stats.EntryFetches,
		CacheHits:       stats.Cache.Hits,
		CacheMisses:     stats.Cache.Misses,
		PagesSkipped:    stats.Prefilter.PagesSkipped,
		ClustersSkipped: stats.Prefilter.ClustersSkipped,
		DocsSkipped:     stats.Prefilter.DocsSkipped,
		FalsePasses:     stats.Prefilter.FalsePasses,
		ResultsHash:     textjoin.ResultDigest(results),
	}
	if alg == textjoin.LSH {
		cell.PagesSkipped = stats.LSH.PagesSkipped
		cell.DocsSkipped = stats.LSH.DocsSkipped
		cell.BucketProbes = stats.LSH.BucketProbes
		cell.Candidates = stats.LSH.Candidates
	}
	return cell, results, nil
}

// runIntegrated runs the planner on the shape and pairs its estimates
// with the measured costs of the grid, producing one
// calibration sample per algorithm, plus the planner sample: the chosen
// plan's estimate against this run's own measured cost.
func runIntegrated(env *shapeEnv, cfg BenchConfig, shapeName string, measured map[string]float64) (IntegratedCell, []CalibrationSample, CalibrationSample, error) {
	env.ws.ParkHeads()
	_, stats, dec, err := textjoin.JoinIntegrated(env.inputs(), env.options(cfg))
	if err != nil {
		return IntegratedCell{}, nil, CalibrationSample{}, err
	}
	ic := IntegratedCell{
		Shape:     shapeName,
		Chosen:    dec.Chosen.String(),
		Estimates: map[string]float64{},
		Measured:  stats.Cost,
	}
	var samples []CalibrationSample
	for _, est := range dec.Estimates {
		name := est.Algorithm.String()
		ic.Estimates[name] = est.Seq
		if m, ok := measured[name]; ok {
			samples = append(samples, CalibrationSample{Label: shapeName, Algorithm: name, Estimated: est.Seq, Measured: m})
		}
	}
	plan := CalibrationSample{
		Label:     shapeName + "/plan-0",
		Algorithm: ic.Chosen,
		Estimated: math.Floor(ic.Estimates[ic.Chosen] + 0.5),
		Measured:  math.Floor(stats.Cost + 0.5),
	}
	return ic, samples, plan, nil
}

// compare returns one message per difference of cur against base, each
// led by the key of what moved. Every number derives from the simulated
// store, so equality is exact. Cells present only in cur are additions,
// not regressions; a cell missing from cur, any drifted value, and any
// change in what the planner did — the integrated choice, estimates and
// measured cost per shape, the planner samples, the mispick list, in
// either direction — fail.
func compare(cur, base *Report) []string {
	var out []string
	curCells := map[string]Cell{}
	for _, c := range cur.Cells {
		curCells[c.key()] = c
	}
	for _, b := range base.Cells {
		c, ok := curCells[b.key()]
		if !ok {
			out = append(out, fmt.Sprintf("%s: cell missing from current report", b.key()))
			continue
		}
		check := func(field string, got, want float64) {
			if got != want {
				out = append(out, fmt.Sprintf("%s: %s = %g, baseline %g", b.key(), field, got, want))
			}
		}
		check("seq_reads", float64(c.SeqReads), float64(b.SeqReads))
		check("rand_reads", float64(c.RandReads), float64(b.RandReads))
		check("cost", c.Cost, b.Cost)
		check("comparisons", float64(c.Comparisons), float64(b.Comparisons))
		check("accumulations", float64(c.Accumulations), float64(b.Accumulations))
		check("entry_fetches", float64(c.EntryFetches), float64(b.EntryFetches))
		check("cache_hits", float64(c.CacheHits), float64(b.CacheHits))
		check("cache_misses", float64(c.CacheMisses), float64(b.CacheMisses))
		check("pages_skipped", float64(c.PagesSkipped), float64(b.PagesSkipped))
		check("docs_skipped", float64(c.DocsSkipped), float64(b.DocsSkipped))
		check("false_passes", float64(c.FalsePasses), float64(b.FalsePasses))
		check("recall", c.Recall, b.Recall)
		check("bucket_probes", float64(c.BucketProbes), float64(b.BucketProbes))
		check("candidates", float64(c.Candidates), float64(b.Candidates))
		if c.ResultsHash != b.ResultsHash {
			out = append(out, fmt.Sprintf("%s: results hash %s, baseline %s", b.key(), c.ResultsHash, b.ResultsHash))
		}
	}
	return append(out, diffKeyed(cur.plannerFacts(), base.plannerFacts())...)
}

// plannerFacts flattens the integrated and calibration sections into
// key → rendered value, one entry per fact the baseline gate holds
// still: "<shape>/integrated", "<label>/planner_sample",
// "<label>/mispick".
func (r *Report) plannerFacts() map[string]string {
	facts := map[string]string{}
	for _, ic := range r.Integrated {
		// fmt renders a map in sorted key order.
		facts[ic.Shape+"/integrated"] = fmt.Sprintf("chosen %s, estimates %v, measured %g", ic.Chosen, ic.Estimates, ic.Measured)
	}
	for _, s := range r.Calibration.PlannerSamples {
		facts[s.Label+"/planner_sample"] = fmt.Sprintf("%s estimated %g, measured %g", s.Algorithm, s.Estimated, s.Measured)
	}
	for _, m := range r.Calibration.Mispicks {
		facts[m.Label+"/mispick"] = fmt.Sprintf("estimated best %s, measured best %s, penalty %g", m.EstimatedBest, m.MeasuredBest, m.Penalty)
	}
	return facts
}

// diffKeyed reports, in key order, every key whose value differs between
// cur and base or that only one of them holds.
func diffKeyed(cur, base map[string]string) []string {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		c, inCur := cur[k]
		b, inBase := base[k]
		switch {
		case !inCur:
			out = append(out, fmt.Sprintf("%s: missing from current report (baseline: %s)", k, b))
		case !inBase:
			out = append(out, fmt.Sprintf("%s: not in baseline (%s)", k, c))
		case c != b:
			out = append(out, fmt.Sprintf("%s: %s; baseline: %s", k, c, b))
		}
	}
	return out
}

// writeHuman renders the report as a table.
func writeHuman(w io.Writer, r *Report) {
	fmt.Fprintf(w, "benchreport: scale=%d lambda=%d mem=%d alpha=%.1f\n\n",
		r.Config.Scale, r.Config.Lambda, r.Config.MemoryPages, r.Config.Alpha)
	fmt.Fprintf(w, "%-14s %-9s %9s %9s %10s %12s %s\n",
		"shape", "alg", "seq", "rand", "cost", "accum", "hash")
	for _, c := range r.Cells {
		work := c.Comparisons + c.Accumulations
		fmt.Fprintf(w, "%-14s %-9s %9d %9d %10.0f %12d %.8s\n",
			c.Shape, c.Algorithm, c.SeqReads, c.RandReads, c.Cost, work, c.ResultsHash)
	}
	fmt.Fprintln(w)
	for _, ic := range r.Integrated {
		fmt.Fprintf(w, "%-14s integrated chose %-5s (measured %.0f; estimates", ic.Shape, ic.Chosen, ic.Measured)
		for _, a := range []string{"HHNL", "HVNL", "VVM"} {
			if v, ok := ic.Estimates[a]; ok {
				fmt.Fprintf(w, " %s=%.0f", a, v)
			}
		}
		fmt.Fprintln(w, ")")
	}
}
