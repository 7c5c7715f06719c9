// Command lintcheck runs the repo's static-analysis suite
// (internal/analysis) over the whole module and exits non-zero on any
// finding. It is the `make lint` gate: the six analyzers encode the
// project's architectural promises — deterministic result production
// (mapdeterminism), byte-stable baselines (wallclock), the nil-safe
// telemetry contract (nilrecv), released resources and ended trace spans
// (resourceleak), consulted errors (errdrop) and leaf locks never held
// across simulated I/O or a whole join (mutexhygiene) — plus the
// lintdirective hygiene rule that keeps every //lint:ignore explained
// and load-bearing. The package DAG is internal/analysis's
// TestArchitecture, not a rule here.
//
// Usage:
//
//	lintcheck [-root dir] [-report] [-q]
//
// With no flags it finds the module root by walking up from the
// working directory to go.mod and prints go-vet-style findings, one
// per line. Every run type-checks every package of the module, and of
// each module nested in it, from the compiler's export data. -report
// prints a human summary: every rule with its finding count, files
// visited, pre-suppression diagnostics and wall time, plus the
// suppression tally.
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"textjoin/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lintcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
		summary = fs.Bool("report", false, "print a per-rule summary instead of one line per finding")
		quiet   = fs.Bool("q", false, "suppress the trailing ok/finding-count line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintf(stderr, "lintcheck: %v\n", err)
			return 2
		}
		*root = r
	}
	report, err := analysis.Run(*root, analysis.DefaultPolicy(), analysis.RunOptions{Now: time.Now})
	if err != nil {
		fmt.Fprintf(stderr, "lintcheck: %v\n", err)
		return 2
	}

	if *summary {
		printSummary(stdout, report)
	} else {
		for _, d := range report.Diagnostics {
			fmt.Fprintln(stdout, d.String())
		}
	}

	if len(report.Diagnostics) > 0 {
		if !*quiet {
			fmt.Fprintf(stderr, "lintcheck: %d finding(s) in %d package(s)\n",
				len(report.Diagnostics), len(report.Packages))
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "lintcheck: ok (%d packages, %d rules, %d suppressed)\n",
			len(report.Packages), len(report.Rules), report.Suppressed)
	}
	return 0
}

// printSummary renders the -report mode: each rule with its
// finding count, files visited, pre-suppression diagnostics and wall
// time, then the suppression tally — the review-friendly view for
// deciding which findings to fix and which to justify.
func printSummary(w io.Writer, report *analysis.Report) {
	counts := make(map[string]int)
	for _, d := range report.Diagnostics {
		counts[d.Rule]++
	}
	docs := make(map[string]string)
	for _, a := range analysis.Analyzers(analysis.DefaultPolicy()) {
		docs[a.Name()] = a.Doc()
	}
	fmt.Fprintf(w, "module %s: %d packages analyzed\n", report.Module, len(report.Packages))
	for _, st := range report.RuleStats {
		fmt.Fprintf(w, "  %-16s %3d finding(s)  %4d file(s)  %3d raw  %8s  %s\n",
			st.Rule, counts[st.Rule], st.Files, st.Diagnostics,
			time.Duration(st.WallNS).Round(10*time.Microsecond), docs[st.Rule])
	}
	fmt.Fprintf(w, "  %-16s %3d finding(s)  malformed, unknown-rule or stale lint:ignore directives\n",
		analysis.RuleLintDirective, counts[analysis.RuleLintDirective])
	fmt.Fprintf(w, "  suppressed by lint:ignore: %d\n", report.Suppressed)
	for _, d := range report.Diagnostics {
		fmt.Fprintln(w, "  "+d.String())
	}
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
