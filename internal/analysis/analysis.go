// Package analysis is the repo's in-tree static-analysis engine: a
// stdlib-only (go/parser, go/ast, go/types, go/importer) loader plus
// seven analyzers that lock the project's architectural promises into
// CI — the DESIGN.md package DAG (importlayer), deterministic result
// production (mapdeterminism), byte-stable baselines with no stray
// wall-clock or global-rand reads (wallclock), the telemetry layer's
// nil-receiver contract (nilrecv), and the three rules that reason
// about paths over one CFG + dataflow core (cfg.go, dataflow.go):
// resources — trace spans included — released on every path
// (resourceleak), errors consulted before they are dropped (errdrop),
// and no lock held across another acquire or a forbidden call
// (mutexhygiene). A new must-release or must-not-hold invariant is a
// row in the Policy table those rules read, not an analyzer of its own.
//
// The engine mirrors the shape of golang.org/x/tools/go/analysis at a
// fraction of its surface, because the container bakes in only the Go
// toolchain: an Analyzer inspects one loaded Package at a time and
// returns position-accurate Diagnostics. Findings are suppressible at
// the flagged line (or the line above it) with
//
//	//lint:ignore <rule> <reason>
//
// where the reason is mandatory: an ignore without one, an ignore for
// an unknown rule, and an ignore that suppresses nothing are themselves
// diagnostics (rule "lintdirective"), so the tree can be held to "zero
// diagnostics and zero unexplained or stale ignores".
//
// cmd/lintcheck is the driver; internal/analysis/arch_test.go runs the
// import-layer analyzer against the live repo so `go test ./...` alone
// catches layer violations even without the Makefile.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: a rule violation at a position. File is
// relative to the module root so output is stable across checkouts.
type Diagnostic struct {
	Rule    string
	Package string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the go-vet-style one-liner.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Package is one loaded, parsed and (when the selected analyzers need
// it) type-checked package of the module under analysis.
type Package struct {
	// Module is the module path from go.mod.
	Module string
	// Path is the full import path ("<module>" or "<module>/<rel>").
	Path string
	// Rel is the module-root-relative directory ("" for the root).
	Rel string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by name.
	Files []*ast.File
	// Types and Info are nil unless the loader type-checked the
	// package (Loader.Types). Info is populated even when the check
	// reported errors; TypeErrors then says what went wrong.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Position resolves pos against the package's file set, with the
// filename rewritten relative to the module root.
func (p *Package) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// diag builds a Diagnostic at pos.
func (p *Package) diag(rule string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Position(pos)
	return Diagnostic{
		Rule:    rule,
		Package: p.Path,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// calleeFunc resolves a call to the declared function or method it
// invokes, or nil for builtins, conversions, function values and
// anything else without a package-level identity.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// objOf resolves an identifier to the object it defines or uses.
func objOf(p *Package, id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// Analyzer inspects one package and reports findings. Analyzers are
// constructed from a Policy (see Analyzers) so every repo-specific
// fact — the import DAG, the determinism-sensitive packages, the
// nil-guarded types — lives in the checked-in policy table, not in
// analyzer code.
type Analyzer interface {
	// Name is the rule name used in diagnostics, -rule filters and
	// lint:ignore directives.
	Name() string
	// Doc is a one-paragraph description for `lintcheck -report`.
	Doc() string
	// NeedsTypes reports whether Check reads Package.Info. When every
	// selected analyzer is syntactic the loader skips type checking,
	// which keeps the arch_test smoke fast.
	NeedsTypes() bool
	// Check returns the findings for one package.
	Check(p *Package) []Diagnostic
}

// RunOptions filter an engine run.
type RunOptions struct {
	// Rules selects analyzers by name; empty means all.
	Rules []string
	// Packages selects packages whose module-relative path equals one
	// of the entries or sits beneath it; empty means the whole module.
	Packages []string
	// Now, when set, is sampled around each analyzer's Check to fill
	// RuleStat.WallNS. The clock is injected by the driver so this
	// package itself stays free of wall-clock reads (its own wallclock
	// rule applies here too); a nil Now leaves every WallNS zero.
	Now func() time.Time
}

// RuleStat aggregates one analyzer's work across a run, the numbers
// behind `lintcheck -report`.
type RuleStat struct {
	Rule string
	// Files counts source files the analyzer visited (package files of
	// every package it ran over).
	Files int
	// Diagnostics counts pre-suppression findings, so a rule that fires
	// only into lint:ignore directives still shows its work.
	Diagnostics int
	// WallNS is the summed wall-clock nanoseconds spent in Check, zero
	// when the driver injected no clock.
	WallNS int64
}

// Report is the result of one engine run.
type Report struct {
	Module      string
	Rules       []string
	Packages    []string
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by lint:ignore directives.
	Suppressed int
	// RuleStats carries per-analyzer file/diagnostic counts and wall
	// time, ordered by rule name.
	RuleStats []RuleStat
}

// Run loads every package of the module rooted at root, runs the
// analyzers selected by opts, applies lint:ignore suppression, and
// returns the findings sorted by position. Load or type-check failures
// abort the run: the repo is expected to compile before it is linted.
func Run(root string, pol *Policy, opts RunOptions) (*Report, error) {
	all := Analyzers(pol)
	selected, err := selectAnalyzers(all, opts.Rules)
	if err != nil {
		return nil, err
	}
	needTypes := false
	for _, a := range selected {
		if a.NeedsTypes() {
			needTypes = true
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	loader.Types = needTypes

	rels, err := loader.PackageDirs()
	if err != nil {
		return nil, err
	}
	// The ignore bookkeeping needs the unfiltered directive set of each
	// analyzed package, so filtering happens per package, not per walk.
	report := &Report{Module: loader.Module}
	stats := make(map[string]*RuleStat, len(selected))
	for _, a := range selected {
		report.Rules = append(report.Rules, a.Name())
		stats[a.Name()] = &RuleStat{Rule: a.Name()}
	}
	sort.Strings(report.Rules)

	// An ignore directive is "stale" only when the analyzer it names
	// actually ran; partial runs (-rule, -pkg) skip staleness checks.
	fullRun := len(opts.Rules) == 0 && len(opts.Packages) == 0

	for _, rel := range rels {
		if !selectPackage(rel, opts.Packages) {
			continue
		}
		pkg, err := loader.Load(rel)
		if err != nil {
			return nil, fmt.Errorf("analysis: load %s: %w", relOrRoot(rel), err)
		}
		if needTypes && len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("analysis: type-check %s: %v", pkg.Path, pkg.TypeErrors[0])
		}
		report.Packages = append(report.Packages, pkg.Path)

		var diags []Diagnostic
		for _, a := range selected {
			st := stats[a.Name()]
			st.Files += len(pkg.Files)
			var begin time.Time
			if opts.Now != nil {
				begin = opts.Now()
			}
			found := a.Check(pkg)
			if opts.Now != nil {
				st.WallNS += opts.Now().Sub(begin).Nanoseconds()
			}
			st.Diagnostics += len(found)
			diags = append(diags, found...)
		}
		ignores, malformed := collectIgnores(pkg, knownRules(all))
		kept, suppressed := applyIgnores(diags, ignores)
		kept = append(kept, malformed...)
		report.Suppressed += suppressed
		if fullRun {
			kept = append(kept, staleIgnores(pkg, ignores)...)
		}
		report.Diagnostics = append(report.Diagnostics, kept...)
	}
	sort.Strings(report.Packages)
	sortDiagnostics(report.Diagnostics)
	report.RuleStats = make([]RuleStat, 0, len(stats))
	for _, name := range report.Rules {
		report.RuleStats = append(report.RuleStats, *stats[name])
	}
	return report, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

func selectAnalyzers(all []Analyzer, rules []string) ([]Analyzer, error) {
	if len(rules) == 0 {
		return all, nil
	}
	byName := make(map[string]Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, r := range rules {
		a, ok := byName[r]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q (have %s)", r, strings.Join(knownRules(all), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func selectPackage(rel string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		f = strings.Trim(f, "/")
		if f == "." || f == "" {
			if rel == "" {
				return true
			}
			continue
		}
		if rel == f || strings.HasPrefix(rel, f+"/") {
			return true
		}
	}
	return false
}

// knownRules returns the sorted rule names of all registered analyzers.
func knownRules(all []Analyzer) []string {
	names := make([]string, 0, len(all))
	for _, a := range all {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	return names
}

func relOrRoot(rel string) string {
	if rel == "" {
		return "."
	}
	return rel
}
