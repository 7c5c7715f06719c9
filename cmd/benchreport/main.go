// Command benchreport is the page-read observatory: it runs the one
// experiment grid over the simulated store — the paper's collection
// pairings × exact algorithms with the planner's choice
// and the cost-model calibration audit, then the clustered pairings with
// their signature-prefilter and LSH cells — prints it as a table, and
// fails when anything differs from the checked-in baseline.
//
// Every reported number derives from the deterministic simulated disk —
// no wall-clock time — so reports are byte-stable across machines and
// runs, and the baseline comparison demands exact equality. (Time is
// benchmark/'s to measure; see BENCHMARK.json.)
//
// Usage:
//
//	benchreport                                   # the table and both summaries
//	benchreport -q -baseline BENCH_BASELINE.json  # the gate (also tier-1: TestBaseline)
//	benchreport -q -json BENCH_BASELINE.json -calreport CALIBRATION_PR4.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	cfg := defaultBenchConfig()
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	baselinePath := flag.String("baseline", "", "compare against this baseline report; exit non-zero on any difference")
	calReport := flag.String("calreport", "", "write the cost-model calibration audit to this file")
	quiet := flag.Bool("q", false, "suppress the human-readable table")
	flag.Int64Var(&cfg.Scale, "scale", cfg.Scale, "profile shrink divisor")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generation seed")
	flag.Int64Var(&cfg.MemoryPages, "mem", cfg.MemoryPages, "memory budget B in pages (the clustered cells' budgets are pinned)")
	flag.IntVar(&cfg.Lambda, "lambda", cfg.Lambda, "λ of SIMILAR_TO(λ)")
	flag.Float64Var(&cfg.Alpha, "alpha", cfg.Alpha, "random/sequential I/O cost ratio α")
	flag.Parse()

	report, err := runGrid(cfg)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		writeHuman(os.Stdout, report)
		writePrefilterSummary(os.Stdout, report)
		writeLSHSummary(os.Stdout, report)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}
	if *calReport != "" {
		if err := writeCalibration(report, *calReport); err != nil {
			fatal(err)
		}
	}

	if *baselinePath != "" {
		base, err := loadReport(*baselinePath)
		if err != nil {
			fatal(err)
		}
		if diffs := compare(report, base); len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "benchreport: %d difference(s) vs %s:\n", len(diffs), *baselinePath)
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline check: %d cells and the planner's %d shapes match %s\n", len(report.Cells), len(report.Integrated), *baselinePath)
	}
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func writeCalibration(report *Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Backstop release for the error paths; the success path checks the
	// explicit Close below and the second Close is a no-op.
	defer f.Close()
	if err := report.Calibration.writeReport(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("calibration report written to %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
