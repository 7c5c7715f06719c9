package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"textjoin"
	"textjoin/internal/corpus"
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
	Workers     []int   `json:"workers"`
}

func defaultBenchConfig() BenchConfig {
	return BenchConfig{Scale: 256, Seed: 1, MemoryPages: 256, Lambda: 5, Alpha: 5, Workers: []int{1, 4}}
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
	Workers       int     `json:"workers"`
	SeqReads      int64   `json:"seq_reads"`
	RandReads     int64   `json:"rand_reads"`
	Cost          float64 `json:"cost"`
	Comparisons   int64   `json:"comparisons"`
	Accumulations int64   `json:"accumulations"`
	EntryFetches  int64   `json:"entry_fetches"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// Prefilter counters; only the prefilter grid's "+pf" cells carry
	// non-zero values.
	PagesSkipped    int64 `json:"pages_skipped,omitempty"`
	ClustersSkipped int64 `json:"clusters_skipped,omitempty"`
	DocsSkipped     int64 `json:"docs_skipped,omitempty"`
	FalsePasses     int64 `json:"false_passes,omitempty"`
	// Approximate-join fields; only the LSH grid's "LSH-b*r*" cells
	// carry non-zero values. Recall is measured against the exact
	// ground-truth pair set of the same shape, not estimated.
	Recall       float64 `json:"recall,omitempty"`
	BucketProbes int64   `json:"bucket_probes,omitempty"`
	Candidates   int64   `json:"candidates,omitempty"`
	// ResultsHash fingerprints the full result set, so the baseline
	// comparison also catches correctness regressions (and proves every
	// worker count produces the inline run's output).
	ResultsHash string `json:"results_hash"`
}

func (c Cell) key() string { return fmt.Sprintf("%s/%s/w%d", c.Shape, c.Algorithm, c.Workers) }

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
	Mispicks       []struct {
		Label         string  `json:"label"`
		EstimatedBest string  `json:"estimated_best"`
		MeasuredBest  string  `json:"measured_best"`
		Penalty       float64 `json:"penalty"`
	} `json:"mispicks"`
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
	if c == nil {
		return fmt.Errorf("report carries no calibration section (run with -calibrate)")
	}
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
	Version     int                `json:"version"`
	Config      BenchConfig        `json:"config"`
	Cells       []Cell             `json:"cells"`
	Integrated  []IntegratedCell   `json:"integrated"`
	Calibration *CalibrationReport `json:"calibration,omitempty"`
}

// runGrid executes the full experiment grid.
func runGrid(cfg BenchConfig, calibrate bool) (*Report, error) {
	report := &Report{Version: 1, Config: cfg}
	cal := costmodel.NewCalibration(nil)
	var planner []CalibrationSample

	for _, sh := range shapes() {
		env, err := buildShape(sh, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sh.name, err)
		}

		// Measured cost of every algorithm, per worker count.
		measured := map[string]float64{}
		for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL, textjoin.VVM} {
			for _, workers := range cfg.Workers {
				cell, _, err := runCell(env, cfg, sh.name, alg, workers)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/w%d: %v", sh.name, alg, workers, err)
				}
				report.Cells = append(report.Cells, cell)
				if workers == 1 {
					measured[alg.String()] = cell.Cost
				}
			}
		}

		// The planner's view of the same shape.
		ic, samples, plan, err := runIntegrated(env, cfg, sh.name, measured)
		if err != nil {
			return nil, fmt.Errorf("%s: integrated: %v", sh.name, err)
		}
		report.Integrated = append(report.Integrated, ic)
		if calibrate {
			for _, s := range samples {
				alg, err := parseModelAlg(s.Algorithm)
				if err != nil {
					return nil, err
				}
				if err := cal.Add(costmodel.Sample{Label: s.Label, Algorithm: alg, Estimated: s.Estimated, Measured: s.Measured}); err != nil {
					return nil, err
				}
			}
			planner = append(planner, plan)
		}
	}

	if calibrate {
		cr := &CalibrationReport{PlannerSamples: planner}
		for _, s := range cal.Samples() {
			cr.Samples = append(cr.Samples, CalibrationSample{
				Label: s.Label, Algorithm: s.Algorithm.String(), Estimated: s.Estimated, Measured: s.Measured,
			})
		}
		for _, m := range cal.Mispicks() {
			cr.Mispicks = append(cr.Mispicks, struct {
				Label         string  `json:"label"`
				EstimatedBest string  `json:"estimated_best"`
				MeasuredBest  string  `json:"measured_best"`
				Penalty       float64 `json:"penalty"`
			}{m.Label, m.EstimatedBest.String(), m.MeasuredBest.String(), m.Penalty})
		}
		report.Calibration = cr
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
	gen := func(name, profile string, seed int64) (*textjoin.Collection, error) {
		p, err := corpus.ProfileByName(profile)
		if err != nil {
			return nil, err
		}
		sp := p.Scaled(cfg.Scale)
		sp.Name = name
		return ws.GenerateCorpus(sp, seed)
	}
	c1, err := gen("c1", sh.p1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c2, err := gen("c2", sh.p2, cfg.Seed+1)
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

// runCell measures one (shape, algorithm, workers) grid point. The raw
// results are returned alongside the cell so grids that need them — the
// LSH grid's ground truth — avoid a second, head-position-dependent run.
func runCell(env *shapeEnv, cfg BenchConfig, shapeName string, alg textjoin.Algorithm, workers int) (Cell, []textjoin.Result, error) {
	// Park the heads so each cell's sequential/random classification is
	// independent of where the previous cell finished.
	env.ws.ParkHeads()
	in, opts := env.inputs(), env.options(cfg)
	opts.Workers = workers
	results, stats, err := textjoin.Join(alg, in, opts)
	if err != nil {
		return Cell{}, nil, err
	}
	return Cell{
		Shape:         shapeName,
		Algorithm:     alg.String(),
		Workers:       workers,
		SeqReads:      stats.IO.SeqReads,
		RandReads:     stats.IO.RandReads,
		Cost:          stats.Cost,
		Comparisons:   stats.Comparisons,
		Accumulations: stats.Accumulations,
		EntryFetches:  stats.EntryFetches,
		CacheHits:     stats.Cache.Hits,
		CacheMisses:   stats.Cache.Misses,
		ResultsHash:   hashResults(results),
	}, results, nil
}

// runIntegrated runs the planner on the shape and pairs its estimates
// with the measured workers=1 costs of the grid, producing one
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

// hashResults fingerprints a result set: outer ids, match ids and the
// exact similarity bits.
func hashResults(results []textjoin.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop hash.Hash Write is documented to never return an error
		h.Write(buf[:])
	}
	for _, r := range results {
		put(uint64(r.Outer))
		for _, m := range r.Matches {
			put(uint64(m.Doc))
			put(math.Float64bits(m.Sim))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// compare returns one message per regression of cur against base. Cells
// present only in cur are additions, not regressions; cells missing from
// cur and any value drifting beyond the relative tolerance fail.
func compare(cur, base *Report, tolerance float64) []string {
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
			if !within(got, want, tolerance) {
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
	return out
}

func within(got, want, tolerance float64) bool {
	if got == want {
		return true
	}
	if want == 0 {
		return math.Abs(got) <= tolerance
	}
	return math.Abs(got-want)/math.Abs(want) <= tolerance
}

// writeHuman renders the report as a table.
func writeHuman(w io.Writer, r *Report) {
	fmt.Fprintf(w, "benchreport: scale=%d lambda=%d mem=%d alpha=%.1f\n\n",
		r.Config.Scale, r.Config.Lambda, r.Config.MemoryPages, r.Config.Alpha)
	fmt.Fprintf(w, "%-10s %-5s %3s %9s %9s %10s %12s %s\n",
		"shape", "alg", "w", "seq", "rand", "cost", "accum", "hash")
	for _, c := range r.Cells {
		work := c.Comparisons + c.Accumulations
		fmt.Fprintf(w, "%-10s %-5s %3d %9d %9d %10.0f %12d %.8s\n",
			c.Shape, c.Algorithm, c.Workers, c.SeqReads, c.RandReads, c.Cost, work, c.ResultsHash)
	}
	fmt.Fprintln(w)
	for _, ic := range r.Integrated {
		fmt.Fprintf(w, "%-10s integrated chose %-5s (measured %.0f; estimates", ic.Shape, ic.Chosen, ic.Measured)
		for _, a := range []string{"HHNL", "HVNL", "VVM"} {
			if v, ok := ic.Estimates[a]; ok {
				fmt.Fprintf(w, " %s=%.0f", a, v)
			}
		}
		fmt.Fprintln(w, ")")
	}
}
