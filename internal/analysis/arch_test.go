package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// importLayers is the package DAG of DESIGN.md §2. Key: the
// module-relative directory of a package. Value: the complete list of
// module packages it may import; the standard library is always allowed.
// Every package under internal/ must have a row, so a new package declares
// its layer on arrival, and no internal package imports the facade. A
// program (cmd/*, examples/*) with a row may import the facade plus its
// row; packages outside internal/ without one (the facade, benchmark/)
// may import any module package. The rest of the DAG the go command
// enforces by itself: no import cycle, no external module (go.mod has no
// require), no import of a program.
//
// The rows transcribe the layer diagram: the collector (metrics), the
// tracer (reqtrace) and codec/costmodel/relation/topk/analysis/iosim are
// stdlib-only, slo sees only metrics, accum (whose AddCells takes the
// cells it multiplies) and document sit one rung above codec, and the
// join core is the only package that may pull the whole storage stack
// together. The collector belongs to the programs: no storage, cache,
// join, query or tracing package may import metrics, so a join's numbers
// leave it only through the Stats it returns and its span, and a program
// adds them, and the phase histograms of its finished trace, to its
// collector once per request (textjoin.RecordJoin, ObservePhases). The program rows are the one-door rule: a program gets its
// disk, collections, inverted files and joins from the facade, and lists
// only what it is about besides — data generation (corpus), pure formulas
// (costmodel, simulate), observability, the lint engine — never a storage
// or join package.
var importLayers = map[string][]string{
	"internal/analysis":  {},
	"internal/codec":     {},
	"internal/costmodel": {},
	"internal/metrics":   {},
	"internal/relation":  {},
	"internal/reqtrace":  {},
	"internal/topk":      {},

	"internal/accum":    {"internal/codec"},
	"internal/document": {"internal/codec"},
	"internal/iosim":    {},
	"internal/slo":      {"internal/metrics"},

	"internal/btree":      {"internal/codec", "internal/iosim"},
	"internal/termmap":    {"internal/codec", "internal/document"},
	"internal/tokenize":   {"internal/document", "internal/termmap"},
	"internal/collection": {"internal/codec", "internal/document", "internal/iosim"},
	"internal/stats":      {"internal/collection", "internal/document"},
	"internal/invfile":    {"internal/btree", "internal/codec", "internal/collection", "internal/iosim"},
	"internal/entrycache": {"internal/invfile"},
	"internal/cluster":    {"internal/collection", "internal/document", "internal/iosim"},
	"internal/lsh":        {"internal/collection", "internal/document", "internal/iosim"},
	"internal/signature":  {"internal/collection", "internal/document", "internal/iosim"},
	"internal/corpus":     {"internal/collection", "internal/costmodel", "internal/document", "internal/iosim"},

	"internal/core": {
		"internal/accum", "internal/codec", "internal/collection",
		"internal/costmodel", "internal/document", "internal/entrycache",
		"internal/invfile", "internal/iosim", "internal/lsh",
		"internal/reqtrace", "internal/signature", "internal/stats",
		"internal/topk",
	},
	"internal/query": {
		"internal/collection", "internal/core", "internal/costmodel",
		"internal/document", "internal/invfile", "internal/lsh",
		"internal/relation",
	},
	"internal/simulate": {"internal/corpus", "internal/costmodel"},

	"cmd/benchreport": {"internal/corpus", "internal/costmodel"},
	"cmd/corpusgen":   {"internal/corpus"},
	"cmd/lintcheck":   {"internal/analysis"},
	"cmd/loadgen":     {"internal/metrics"},
	"cmd/simulate":    {"internal/corpus", "internal/costmodel", "internal/simulate"},
	"cmd/textjoin":    {"internal/corpus", "internal/reqtrace"},
	"cmd/textjoind":   {"internal/metrics", "internal/reqtrace"},
	"cmd/tracecheck":  {"internal/metrics", "internal/reqtrace"},

	"examples/clustering":   {},
	"examples/costexplorer": {},
	"examples/jobmatch":     {},
	"examples/multidb":      {},
	"examples/reviewers":    {},
}

// layersFixture is the table testdata/layers is written against.
// internal/notable is deliberately missing from it, and so is cmd/tool:
// only a program with a row (cmd/door) is held to one.
var layersFixture = map[string][]string{
	"internal/a": {},
	"internal/b": {"internal/a"},
	"internal/c": {},
	"cmd/door":   {"internal/a"},
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestArchitecture holds the package DAG: the import block of every
// non-test file against the allow table. It also keeps every internal
// package off the wall clock and the global rand source (wallClockUses),
// which is what keeps page counts, result digests and trace IDs
// byte-stable across runs. The live tree must produce nothing;
// testdata/layers, whose files break every rule stated here, must
// produce exactly its `// want importlayer` and `// want wallclock`
// annotations.
func TestArchitecture(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		for _, d := range layerViolations(t, repoRoot(t), "textjoin", importLayers) {
			t.Errorf("%s", d)
		}
	})
	t.Run("layers", func(t *testing.T) {
		matchWants(t, "testdata/layers", layerViolations(t, "testdata/layers", "layered", layersFixture))
	})
}

// layerViolations checks every non-test file of the module at root
// against table, and every one under internal/ with wallClockUses,
// skipping hidden and testdata directories like the go tool.
func layerViolations(t *testing.T, root, module string, table map[string][]string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var diags []Diagnostic
	unlisted := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		file := filepath.ToSlash(filepath.Join(dir, d.Name()))
		rel := filepath.ToSlash(dir)
		if rel == "." {
			rel = ""
		}
		report := func(pos token.Pos, format string, args ...any) {
			p := fset.Position(pos)
			diags = append(diags, Diagnostic{Rule: "importlayer", Package: rel, File: file,
				Line: p.Line, Col: p.Column, Message: fmt.Sprintf(format, args...)})
		}

		internal := strings.HasPrefix(rel, "internal/")
		allowed, listed := table[rel]
		if internal && !listed && !unlisted[rel] {
			unlisted[rel] = true
			report(f.Name.Pos(), "internal package %s is not in the import-layer policy table; give it a row in importLayers", rel)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			dep, inModule := strings.CutPrefix(path, module+"/")
			switch {
			case path == module && internal:
				report(imp.Pos(), "import of %s: internal packages must not import the facade package", path)
			case inModule && listed && !slices.Contains(allowed, dep):
				report(imp.Pos(), "import of %s: not an allowed dependency of %s (its row: %v)", path, rel, allowed)
			}
		}
		if internal {
			for _, d := range wallClockUses(fset, f) {
				d.Package, d.File = rel, file
				diags = append(diags, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// seededRand is what an internal package may name in math/rand and
// math/rand/v2: the constructors of an explicitly seeded generator and
// the types they return. Everything else there reads or writes the
// global source.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// wallClockUses reports, in one parsed file, every read of the wall
// clock (time.Now, time.Since, time.Until, called or stored as a value)
// and every use of the global rand source, under whatever name the file
// imports time, math/rand and math/rand/v2. A dot-import of any of them
// hides its uses from this check, so it is itself a finding.
// time.Sleep, time.Duration and the other constants stay legal: they
// read no clock.
func wallClockUses(fset *token.FileSet, f *ast.File) []Diagnostic {
	local := map[string]string{} // file-local name → import path
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		diags = append(diags, Diagnostic{Rule: "wallclock", Line: p.Line, Col: p.Column,
			Message: fmt.Sprintf(format, args...)})
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "time" && path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		name := "rand"
		if path == "time" {
			name = "time"
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			report(imp.Pos(), "dot-import of %s: name the package so its clock and global-rand uses stay visible", path)
		}
		local[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch path, name := local[x.Name], sel.Sel.Name; {
		case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
			report(sel.Pos(), "time.%s: internal packages must not read the wall clock; take an injected clock", name)
		case strings.HasPrefix(path, "math/rand") && !seededRand[name]:
			report(sel.Pos(), "rand.%s uses the global rand state: seed an explicit *rand.Rand so runs stay reproducible", name)
		}
		return true
	})
	return diags
}

// TestQuickChecksAreSeeded keeps every testing/quick property on a fixed
// source: a quick.Config without a Rand, or a nil config, draws its cases
// from the clock, so a case that fails once may never come back. It
// parses every test file of the module and of benchmark/; the live tree
// must produce nothing, and testdata/quick exactly its want annotations.
func TestQuickChecksAreSeeded(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		for _, d := range unseededQuick(t, repoRoot(t)) {
			t.Errorf("%s", d)
		}
	})
	t.Run("quick", func(t *testing.T) {
		matchWants(t, "testdata/quick", unseededQuick(t, "testdata/quick"))
	})
}

// unseededQuick reports, in every _test.go file under root, each
// quick.Config literal without a non-nil Rand and each quick.Check or
// quick.CheckEqual call given a nil config, skipping hidden and testdata
// directories below root like the go tool.
func unseededQuick(t *testing.T, root string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var diags []Diagnostic
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing/quick"` {
				name = "quick"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		report := func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			diags = append(diags, Diagnostic{Rule: "quickseed", File: filepath.ToSlash(rel),
				Line: p.Line, Col: p.Column, Message: msg})
		}
		isQuick := func(e ast.Expr, names ...string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == name && slices.Contains(names, sel.Sel.Name)
		}
		isNil := func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && id.Name == "nil"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isQuick(n.Type, "Config") {
					return true
				}
				seeded := slices.ContainsFunc(n.Elts, func(e ast.Expr) bool {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						return false
					}
					key, ok := kv.Key.(*ast.Ident)
					return ok && key.Name == "Rand" && !isNil(kv.Value)
				})
				if !seeded {
					report(n.Pos(), "quick.Config without Rand draws its cases from the clock: give it rand.New(rand.NewSource(n))")
				}
			case *ast.CallExpr:
				if isQuick(n.Fun, "Check", "CheckEqual") && len(n.Args) > 0 && isNil(n.Args[len(n.Args)-1]) {
					report(n.Pos(), "quick check with a nil config draws its cases from the clock: pass a quick.Config with a seeded Rand")
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}
