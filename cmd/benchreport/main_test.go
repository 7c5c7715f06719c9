package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"textjoin"
)

// gridReport runs the grid once at the default config — the config of
// the checked-in baseline — and shares the report between the tests.
var gridReport = sync.OnceValues(func() (*Report, error) { return runGrid(defaultBenchConfig()) })

func grid(t *testing.T) *Report {
	t.Helper()
	report, err := gridReport()
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// clone deep-copies a report through its JSON form, so a test can
// perturb the copy.
func clone(t *testing.T, r *Report) *Report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestBaseline is the page-read gate in tier-1: the grid at the default
// config must match the checked-in baseline in every cell (page reads,
// work counters, result hashes) and in everything the planner did, and
// the calibration audit it renders must be the checked-in one.
// Regenerate both, after an intended change, with
//
//	go run ./cmd/benchreport -q -json BENCH_BASELINE.json -calreport CALIBRATION_PR4.md
func TestBaseline(t *testing.T) {
	report := grid(t)
	base, err := loadReport("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cells) != len(report.Cells) {
		t.Errorf("baseline holds %d cells, the grid has %d", len(base.Cells), len(report.Cells))
	}
	for _, d := range compare(report, base) {
		t.Error(d)
	}

	want, err := os.ReadFile("../../CALIBRATION_PR4.md")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report.Calibration.writeReport(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("calibration audit differs from CALIBRATION_PR4.md:\n%s", sb.String())
	}
}

// TestGridDeterminism is the property the checked-in baseline relies on:
// two runs with the same config produce byte-identical JSON.
func TestGridDeterminism(t *testing.T) {
	again, err := runGrid(defaultBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(grid(t))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("reports differ across runs:\n%s\n%s", j1, j2)
	}
}

// TestLSHGridDeterminism holds what sharing one workspace between the
// banding shapes relies on: an LSH cell does not depend on what ran on
// its workspace before it. The last banding shape, measured alone on a
// fresh workspace, must equal its cell in the grid.
func TestLSHGridDeterminism(t *testing.T) {
	cfg := defaultBenchConfig()
	cfg.MemoryPages = clusteredPages
	lcfg := lshGridConfigs()[len(lshGridConfigs())-1]
	cells := map[string]Cell{}
	for _, c := range grid(t).Cells {
		cells[c.key()] = c
	}
	for _, sh := range pfShapes() {
		env, _, err := buildClusteredShape(sh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := env.ws.BuildLSH(env.c1, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		env.ws.ResetIOStats()
		opts := env.options(cfg)
		opts.LSH = sc
		got, _, err := runCell(env, sh.name, lshAlgName(lcfg), textjoin.LSH, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := cells[got.key()]
		got.Recall = want.Recall // measured against the grid's exact cells, not here
		if got != want {
			t.Errorf("%s alone on a fresh workspace:\n got %+v\nwant %+v", got.key(), got, want)
		}
	}
}

func TestGridShape(t *testing.T) {
	report := grid(t)
	wantCells := len(shapes())*3 + len(pfShapes())*(3+len(lshGridConfigs()))
	if len(report.Cells) != wantCells {
		t.Errorf("got %d cells, want %d", len(report.Cells), wantCells)
	}
	keys := map[string]bool{}
	for _, c := range report.Cells {
		if keys[c.key()] {
			t.Errorf("%s: duplicate cell", c.key())
		}
		keys[c.key()] = true
	}
	if len(report.Integrated) != len(shapes()) {
		t.Errorf("got %d integrated cells, want %d", len(report.Integrated), len(shapes()))
	}

	// Calibration: one sample per (shape, algorithm), and the planner
	// replay extracted at least one sample per shape.
	if n := len(report.Calibration.Samples); n != len(shapes())*3 {
		t.Errorf("got %d calibration samples, want %d", n, len(shapes())*3)
	}
	if n := len(report.Calibration.PlannerSamples); n != len(shapes()) {
		t.Errorf("got %d planner samples, want %d", n, len(shapes()))
	}
	for _, ic := range report.Integrated {
		if len(ic.Estimates) != 3 {
			t.Errorf("%s: %d estimates", ic.Shape, len(ic.Estimates))
		}
	}
}

// TestLSHGridShape pins the semantics of the clustered shapes' cells:
// exact cells carry no recall or probe counters, LSH cells carry a
// measured recall in (0, 1] and a full probe/skip account, and the
// frontier gate the run enforces (recall ≥ 0.9 at ≤ half the best exact
// page reads) is met by the report it returned.
func TestLSHGridShape(t *testing.T) {
	report := grid(t)
	lshCells := 0
	for _, c := range report.Cells {
		if !c.isLSH() {
			if c.Recall != 0 || c.BucketProbes != 0 || c.Candidates != 0 {
				t.Errorf("%s: exact cell carries LSH fields: recall %v, probes %d, candidates %d",
					c.key(), c.Recall, c.BucketProbes, c.Candidates)
			}
			continue
		}
		lshCells++
		if c.Recall <= 0 || c.Recall > 1 {
			t.Errorf("%s: measured recall %v outside (0, 1]", c.key(), c.Recall)
		}
		if c.BucketProbes <= 0 || c.Candidates <= 0 {
			t.Errorf("%s: LSH cell missing probe counters: %d probes, %d candidates",
				c.key(), c.BucketProbes, c.Candidates)
		}
	}
	if want := len(pfShapes()) * len(lshGridConfigs()); lshCells != want {
		t.Errorf("got %d LSH cells, want %d", lshCells, want)
	}
	if err := checkFrontier(report.Cells); err != nil {
		t.Error(err)
	}
}

// TestCompare: the gate reports nothing on equal reports and exactly the
// key of whatever moved otherwise — a cell's page count or result hash,
// the planner's choice on a shape, a mispick in either direction.
func TestCompare(t *testing.T) {
	cur := grid(t)
	if msgs := compare(cur, cur); len(msgs) != 0 {
		t.Errorf("self-comparison found differences: %v", msgs)
	}
	mispick := Mispick{Label: "fr-fr", EstimatedBest: "HHNL", MeasuredBest: "VVM", Penalty: 1.5}

	for _, tc := range []struct {
		name   string
		mutate func(cur, base *Report)
		want   string
	}{
		{"seq_reads", func(_, b *Report) { b.Cells[0].SeqReads++ }, cur.Cells[0].key() + ": seq_reads"},
		{"cost", func(_, b *Report) { b.Cells[1].Cost *= 1.001 }, cur.Cells[1].key() + ": cost"},
		{"results_hash", func(_, b *Report) { b.Cells[15].ResultsHash = "feedfacefeedface" }, cur.Cells[15].key() + ": results hash"},
		{"recall", func(_, b *Report) { b.Cells[len(b.Cells)-1].Recall += 1e-9 }, cur.Cells[len(cur.Cells)-1].key() + ": recall"},
		{"missing cell", func(_, b *Report) {
			b.Cells = append(b.Cells, Cell{Shape: "zz", Algorithm: "HHNL"})
		}, "zz/HHNL: cell missing"},
		{"chosen", func(_, b *Report) { b.Integrated[0].Chosen = "VVM" }, "wsj-wsj/integrated: chosen HHNL"},
		{"estimate", func(_, b *Report) { b.Integrated[3].Estimates["HVNL"]++ }, "wsj-fr/integrated: "},
		{"planner sample", func(_, b *Report) { b.Calibration.PlannerSamples[2].Measured++ }, "doe-doe/plan-0/planner_sample: "},
		{"mispick gone", func(_, b *Report) {
			b.Calibration.Mispicks = append(b.Calibration.Mispicks, mispick)
		}, "fr-fr/mispick: missing from current report"},
		{"mispick grown", func(c, _ *Report) {
			c.Calibration.Mispicks = append(c.Calibration.Mispicks, mispick)
		}, "fr-fr/mispick: not in baseline"},
	} {
		c, base := clone(t, cur), clone(t, cur)
		tc.mutate(c, base)
		msgs := compare(c, base)
		if len(msgs) != 1 || !strings.HasPrefix(msgs[0], tc.want) {
			t.Errorf("%s: got %q, want exactly one message starting %q", tc.name, msgs, tc.want)
		}
	}
}

func TestCalibrationReportText(t *testing.T) {
	var sb strings.Builder
	if err := grid(t).Calibration.writeReport(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Cost-model calibration report", "## HHNL", "## HVNL", "## VVM", "mispicks"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("calibration report lacks %q", want)
		}
	}
}

// TestHumanReport: with no flags the command prints the grid table and
// both summaries.
func TestHumanReport(t *testing.T) {
	report := grid(t)
	var sb strings.Builder
	writeHuman(&sb, report)
	writePrefilterSummary(&sb, report)
	writeLSHSummary(&sb, report)
	for _, want := range []string{
		"wsj-wsj", "doe-doe", "integrated chose",
		"clustered-eq   HHNL: page reads 328 → 109 (66.8% fewer",
		"clustered-eq   LSH-b64r1 recall 0.9352: page reads 109 vs best exact 328 (3.0× fewer",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("human report lacks %q:\n%s", want, sb.String())
		}
	}
}
