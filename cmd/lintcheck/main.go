// Command lintcheck runs the repo's static-analysis suite
// (internal/analysis) over the whole module and exits non-zero on any
// finding. It is the `make lint` gate: the seven analyzers encode the
// project's architectural promises — the DESIGN.md package DAG
// (importlayer), deterministic result production (mapdeterminism),
// byte-stable baselines (wallclock), the nil-safe telemetry contract
// (nilrecv), released resources and ended trace spans (resourceleak),
// consulted errors (errdrop) and leaf locks never held across simulated
// I/O or a whole join (mutexhygiene) — plus the lintdirective hygiene
// rule that keeps every //lint:ignore explained and load-bearing.
//
// Usage:
//
//	lintcheck [-root dir] [-rule r1,r2] [-pkg p1,p2] [-report] [-q]
//
// With no flags it finds the module root by walking up from the
// working directory to go.mod and prints go-vet-style findings, one
// per line. -rule and -pkg narrow the run (stale-ignore detection is
// skipped on narrowed runs; the loader skips type checking when no
// selected rule needs it, so `-rule importlayer,nilrecv` is the
// parse-only edit-loop run). -report prints a human summary: every
// rule that ran with its finding count, files visited, pre-suppression
// diagnostics and wall time, plus the suppression tally.
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"textjoin/internal/analysis"
)

func main() {
	var (
		root    = flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
		rules   = flag.String("rule", "", "comma-separated rule names to run (default: all)")
		pkgs    = flag.String("pkg", "", "comma-separated module-relative package paths (prefixes) to check")
		summary = flag.Bool("report", false, "print a per-rule summary instead of one line per finding")
		quiet   = flag.Bool("q", false, "suppress the trailing ok/finding-count line")
	)
	flag.Parse()
	os.Exit(run(*root, *rules, *pkgs, *summary, *quiet, os.Stdout, os.Stderr))
}

func run(root, rules, pkgs string, summary, quiet bool, stdout, stderr io.Writer) int {
	if root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintf(stderr, "lintcheck: %v\n", err)
			return 2
		}
		root = r
	}
	opts := analysis.RunOptions{Rules: splitList(rules), Packages: splitList(pkgs), Now: time.Now}
	report, err := analysis.Run(root, analysis.DefaultPolicy(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "lintcheck: %v\n", err)
		return 2
	}

	if summary {
		printSummary(stdout, report)
	} else {
		for _, d := range report.Diagnostics {
			fmt.Fprintln(stdout, d.String())
		}
	}

	if len(report.Diagnostics) > 0 {
		if !quiet {
			fmt.Fprintf(stderr, "lintcheck: %d finding(s) in %d package(s)\n",
				len(report.Diagnostics), len(report.Packages))
		}
		return 1
	}
	if !quiet {
		fmt.Fprintf(stdout, "lintcheck: ok (%d packages, %d rules, %d suppressed)\n",
			len(report.Packages), len(report.Rules), report.Suppressed)
	}
	return 0
}

// printSummary renders the -report mode: each rule that ran with its
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

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
