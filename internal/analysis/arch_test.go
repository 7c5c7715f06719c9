package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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
// tracer (reqtrace), the free lists (freelist) and
// codec/costmodel/relation/topk/analysis/iosim are stdlib-only, slo sees only metrics, accum (whose AddCells takes the
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
	"internal/freelist":  {},
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
		"internal/freelist", "internal/invfile", "internal/iosim", "internal/lsh",
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
	"cmd/loadgen":     {},
	"cmd/simulate":    {"internal/corpus", "internal/costmodel", "internal/simulate"},
	"cmd/textjoin":    {"internal/corpus", "internal/reqtrace"},
	"cmd/textjoind":   {"internal/freelist", "internal/metrics", "internal/reqtrace"},
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
	var diags []Diagnostic
	unlisted := map[string]bool{}
	eachGoFile(t, root, false, func(fset *token.FileSet, file string, f *ast.File) {
		rel := path.Dir(file)
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
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it
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
	})
	return diags
}

// eachGoFile parses every Go file under root — only the _test.go files
// when tests is set, only the others when not — skipping hidden and
// testdata directories below root like the go tool, and hands each to
// fn with its slash-separated path relative to root.
func eachGoFile(t *testing.T, root string, tests bool, fn func(fset *token.FileSet, file string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		fn(fset, filepath.ToSlash(rel), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	var diags []Diagnostic
	eachGoFile(t, root, true, func(fset *token.FileSet, file string, f *ast.File) {
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
			return
		}
		report := func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			diags = append(diags, Diagnostic{Rule: "quickseed", File: file,
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
	})
	return diags
}

// TestCmdReleasesFilesAndListeners holds the programs under cmd/ to the
// release rule a view and a span meet at run time: each os.Open,
// os.Create, os.OpenFile and net.Listen result is closed by a defer in
// the block that opened it, returned, or handed to Serve, which closes
// the listener. A file opened for writing also needs an explicit Close
// whose error is checked, since a failed write can surface only there.
// The live programs must produce nothing, and testdata/release exactly
// its want annotations.
func TestCmdReleasesFilesAndListeners(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		for _, d := range unreleased(t, filepath.Join(repoRoot(t), "cmd")) {
			t.Errorf("%s", d)
		}
	})
	t.Run("release", func(t *testing.T) {
		matchWants(t, "testdata/release", unreleased(t, "testdata/release"))
	})
}

// unreleased reports, in every non-test file under root, each file or
// listener that TestCmdReleasesFilesAndListeners' rule rejects. The
// package names os and net are taken as spelled; no program renames them.
func unreleased(t *testing.T, root string) []Diagnostic {
	t.Helper()
	var diags []Diagnostic
	eachGoFile(t, root, false, func(fset *token.FileSet, file string, f *ast.File) {
		report := func(n ast.Node, msg string) {
			p := fset.Position(n.Pos())
			diags = append(diags, Diagnostic{Rule: "release", File: file, Line: p.Line, Col: p.Column, Message: msg})
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			kept := map[ast.Node]bool{} // acquires bound to a variable or returned
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ReturnStmt:
					for _, r := range n.Results {
						kept[r] = true
					}
				case *ast.BlockStmt:
					for _, st := range n.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && acquired(as.Rhs[0]) != "" {
							if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
								kept[as.Rhs[0]] = true
								for _, msg := range releaseFaults(fd.Body, n, id.Name, acquired(as.Rhs[0])) {
									report(as, msg)
								}
							}
						}
					}
				case *ast.CallExpr:
					if what := acquired(n); what != "" && !kept[n] {
						report(n, what+" result is not kept in a variable, so nothing can close it")
					}
				}
				return true
			})
		}
	})
	return diags
}

// acquired names the call n makes when the release rule tracks it,
// "os.Create" say, and is "" otherwise.
func acquired(n ast.Node) string {
	switch x, name := callOn(n); x + "." + name {
	case "os.Open", "os.Create", "os.OpenFile", "net.Listen":
		return x + "." + name
	}
	return ""
}

// releaseFaults says what the variable name, bound by the call what in
// block blk of the function body, is missing: a release (a deferred
// Close in blk, a return, or a hand-off to Serve), and for a file opened
// for writing an explicit Close whose error is read.
func releaseFaults(body, blk *ast.BlockStmt, name, what string) []string {
	isVar := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == name }
	released := slices.ContainsFunc(blk.List, func(s ast.Stmt) bool {
		ds, ok := s.(*ast.DeferStmt)
		return ok && isClose(ds.Call, name)
	})
	checked := false
	dropped := map[ast.Node]bool{} // calls whose results nothing reads
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			dropped[n.Call] = true
		case *ast.ExprStmt:
			dropped[n.X] = true
		case *ast.ReturnStmt:
			released = released || slices.ContainsFunc(n.Results, isVar)
		case *ast.CallExpr:
			_, fn := callOn(n)
			released = released || fn == "Serve" && slices.ContainsFunc(n.Args, isVar)
			checked = checked || isClose(n, name) && !dropped[n]
		}
		return true
	})
	var faults []string
	if !released {
		faults = append(faults, fmt.Sprintf("%s result %s is neither closed by a defer in its block, returned, nor passed to Serve", what, name))
	}
	if (what == "os.Create" || what == "os.OpenFile") && !checked {
		faults = append(faults, fmt.Sprintf("%s file %s is written, but no explicit Close has its error checked", what, name))
	}
	return faults
}

// isClose reports whether n is the call name.Close().
func isClose(n ast.Node, name string) bool {
	x, fn := callOn(n)
	return x == name && fn == "Close"
}

// callOn splits a call x.name(...) into x and name, x "" when the
// receiver is not a plain name; both "" for any other node.
func callOn(n ast.Node) (x, name string) {
	if call, ok := n.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				x = id.Name
			}
			return x, sel.Sel.Name
		}
	}
	return "", ""
}
