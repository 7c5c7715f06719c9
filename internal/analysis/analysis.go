// Package analysis is the repo's in-tree static-analysis engine: a
// loader that type-checks the module from the compiler's export data
// (go list -export plus go/importer, all in the Go toolchain) and six
// analyzers that lock the project's architectural promises into CI —
// deterministic result production (mapdeterminism), byte-stable
// baselines with no stray wall-clock or global-rand reads (wallclock),
// the telemetry layer's nil-receiver contract (nilrecv), errors consulted
// rather than discarded (errdrop), and the two rules that reason about
// paths over one CFG + dataflow core (cfg.go, dataflow.go): resources —
// trace spans included — released on every path (resourceleak), and no
// lock held across another acquire or a forbidden call (mutexhygiene). A
// new must-release or must-not-hold invariant is a row in the Policy
// table those rules read, not an analyzer of its own.
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
// cmd/lintcheck is the driver. The package DAG is not an analyzer: the
// go command already rejects import cycles, external modules and
// imports of a program, and internal/analysis/arch_test.go holds the
// per-package allow table, so `go test ./...` alone catches a layer
// violation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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

// Package is one loaded, parsed and type-checked package of the module
// under analysis.
type Package struct {
	// Module is the root module's path from go.mod; a package of a
	// nested module (benchmark/) carries the root's, so "." in a policy
	// row still names the facade.
	Module string
	// Path is the package's import path.
	Path string
	// Rel is the directory relative to the root ("" for the root).
	Rel string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by name.
	Files []*ast.File
	// Types and Info are the package's type-check result.
	Types *types.Package
	Info  *types.Info
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
// fact — the determinism-sensitive packages, the nil-guarded types, the
// resource and lock rows — lives in the checked-in policy table, not in
// analyzer code.
type Analyzer interface {
	// Name is the rule name used in diagnostics and lint:ignore
	// directives.
	Name() string
	// Doc is a one-paragraph description for `lintcheck -report`.
	Doc() string
	// Check returns the findings for one package.
	Check(p *Package) []Diagnostic
}

// RunOptions configure an engine run.
type RunOptions struct {
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
	// time, in Rules order.
	RuleStats []RuleStat
}

// Run loads every package of the module rooted at root, runs every
// analyzer over each, applies lint:ignore suppression, reports stale
// directives, and returns the findings sorted by position. A load or
// type-check failure aborts the run: the repo is expected to compile
// before it is linted.
func Run(root string, pol *Policy, opts RunOptions) (*Report, error) {
	module, pkgs, err := load(root)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers(pol)
	report := &Report{Module: module, RuleStats: make([]RuleStat, len(analyzers))}
	for i, a := range analyzers {
		report.Rules = append(report.Rules, a.Name())
		report.RuleStats[i].Rule = a.Name()
	}
	for _, pkg := range pkgs {
		report.Packages = append(report.Packages, pkg.Path)
		var diags []Diagnostic
		for i, a := range analyzers {
			st := &report.RuleStats[i]
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
		ignores, malformed := collectIgnores(pkg, report.Rules)
		kept, suppressed := applyIgnores(diags, ignores)
		kept = append(kept, malformed...)
		report.Suppressed += suppressed
		kept = append(kept, staleIgnores(pkg, ignores)...)
		report.Diagnostics = append(report.Diagnostics, kept...)
	}
	sort.Strings(report.Packages)
	sortDiagnostics(report.Diagnostics)
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
