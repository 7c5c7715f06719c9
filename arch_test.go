package textjoin

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
	"textjoin/internal/slo"
)

// persistenceReadHalf is the one allowlist of TestFacadeExportsHaveProgramCallers:
// the loaders that re-attach to a Save snapshot. No program restores a
// workspace yet — cmd/textjoin -save-disk writes them — but
// persistence_test.go round-trips every one and ROADMAP item 2(2) is
// about to fuzz them, so they stay exported without a program caller.
var persistenceReadHalf = map[string]bool{
	"LoadWorkspace":    true,
	"OpenCollection":   true,
	"OpenInvertedFile": true,
	"OpenLSH":          true,
	"OpenSignatures":   true,
}

// TestFacadeExportsHaveProgramCallers pins the facade's size rule: every
// exported top-level identifier of textjoin.go and every exported
// *Workspace method is named by a non-test file under cmd/, examples/ or
// benchmark/ — or it is deleted with its test. A type also stays when
// another facade declaration mentions it: programs hold a *Batch or a
// CostBreakdown through the function that returns it (itself held to
// the rule) without ever spelling the type. Parse-only, like
// internal/core's arch test: a method counts as called when a file that
// imports the facade selects its name.
func TestFacadeExportsHaveProgramCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "textjoin.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		value  = iota // function, constant or variable
		method        // of *Workspace
		typ
	)
	exported := map[string]int{}
	add := func(id *ast.Ident, kind int) {
		if id.IsExported() {
			exported[id.Name] = kind
		}
	}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, value)
			} else if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
				if recv, ok := star.X.(*ast.Ident); ok && recv.Name == "Workspace" {
					add(d.Name, method)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, typ)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						add(name, value)
					}
				}
			}
		}
	}

	// mentions counts each identifier's occurrences in the facade: a type
	// seen more than once is used by a declaration besides its own.
	mentions := map[string]int{}
	ast.Inspect(facade, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false // pkg.Name is another package's identifier
		case *ast.Ident:
			mentions[n.Name]++
		}
		return true
	})

	// named holds what follows "textjoin." in a program, selected what
	// follows any dot in a file that imports the facade.
	named, selected := map[string]bool{}, map[string]bool{}
	for _, root := range []string{"cmd", "examples", "benchmark"} {
		eachGoFile(t, root, false, func(_ *token.FileSet, _ string, f *ast.File) {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != "textjoin" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						selected[sel.Sel.Name] = true
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "textjoin" {
							named[sel.Sel.Name] = true
						}
					}
					return true
				})
			}
		})
	}

	var orphans []string
	for name, kind := range exported {
		used := named[name] || kind == method && selected[name] || kind == typ && mentions[name] > 1
		if !used && !persistenceReadHalf[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("facade exports no program under cmd/, examples/ or benchmark/ names: %s\ngive each a caller or delete it with its test",
			strings.Join(orphans, ", "))
	}
	for name := range persistenceReadHalf {
		if _, ok := exported[name]; !ok {
			t.Errorf("allowlist names %s, which the facade no longer exports", name)
		}
	}
}

// TestBenchmarkModuleVets is tier-1's typed pass over benchmark/. It is a
// module of its own (SNIPPETS.md Snippet 3), so the root's ./... never
// builds it; go vet run inside it type-checks every package there against
// the facade and the internal packages it calls, and a rename that breaks
// one of those calls fails here. go test puts its own go command first
// on the test's PATH.
func TestBenchmarkModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

// TestNilReceiversAreNoOps pins the disabled-path contract (DESIGN §9):
// instrumented code holds plain pointer fields and calls them
// unconditionally, so a nil collector, counter, histogram, exporter,
// tracer, span, recorder or SLO engine must answer every exported method
// without panicking. Each method is called on a typed nil with zero
// arguments (a variadic one with none), except that an interface
// parameter gets a working value from the table below. A method added
// to one of these types is covered on arrival.
func TestNilReceiversAreNoOps(t *testing.T) {
	nils := []any{
		(*metrics.Collector)(nil), (*metrics.Counter)(nil), (*metrics.Histogram)(nil),
		(*metrics.Exporter)(nil),
		(*reqtrace.Tracer)(nil), (*reqtrace.Span)(nil), (*reqtrace.Recorder)(nil),
		(*slo.Engine)(nil),
	}
	ifaceArgs := map[reflect.Type]reflect.Value{
		reflect.TypeFor[io.Writer]():           reflect.ValueOf(io.Discard),
		reflect.TypeFor[http.ResponseWriter](): reflect.ValueOf(httptest.NewRecorder()),
	}
	for _, recv := range nils {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			name := v.Type().String() + "." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				in := m.Type().In(j)
				if in.Kind() == reflect.Interface {
					w, ok := ifaceArgs[in]
					if !ok {
						t.Fatalf("%s takes a %s; give the argument table a working value for it", name, in)
					}
					args[j] = w
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panics: %v", name, r)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args) // no variadic arguments: a nil slice
				} else {
					m.Call(args)
				}
			}()
		}
	}
}

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
// codec/costmodel/relation/topk/iosim are stdlib-only, slo sees only
// metrics, accum (whose AddCells takes the cells it multiplies) and
// document sit one rung above codec, and the join core is the only
// package that may pull the whole storage stack together. The collector
// belongs to the programs: no storage, cache, join, query or tracing
// package may import metrics, so a join's numbers leave it only through
// the Stats it returns and its span, and a program adds them, and the
// phase histograms of its finished trace, to its collector once per
// request (textjoin.RecordJoin, ObservePhases). The program rows are the
// one-door rule: a program gets its disk, collections, inverted files and
// joins from the facade, and lists only what it is about besides — data
// generation (corpus), pure formulas (costmodel, simulate),
// observability — never a storage or join package.
var importLayers = map[string][]string{
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
		for _, d := range layerViolations(t, ".", "textjoin", importLayers) {
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
			diags = append(diags, Diagnostic{Rule: "importlayer", File: file,
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
				d.File = file
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
		for _, d := range unseededQuick(t, ".") {
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
		for _, d := range unreleased(t, "cmd") {
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

// Diagnostic is one finding of a parse-only check: a rule broken at a
// position. File is relative to the walked root, so output is stable
// across checkouts.
type Diagnostic struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the go-vet-style one-liner.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// matchWants compares diags with the `// want <rule> "<message
// substring>"` annotations of the fixture sources under root. Every want
// must be hit and every diagnostic wanted, so both a false negative and a
// false positive fail.
func matchWants(t *testing.T, root string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, root)
	matched := make(map[*want]bool)
	for _, d := range diags {
		w := findWant(wants, d)
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("missing diagnostic: %s:%d wants %s %q", w.file, w.line, w.rule, w.substr)
		}
	}
}

type want struct {
	file   string // root-relative, forward slashes
	line   int
	rule   string
	substr string
}

var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

// parseWants scans every fixture source file for want annotations.
func parseWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &want{
					file:   filepath.ToSlash(rel),
					line:   i + 1,
					rule:   m[1],
					substr: m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parsing wants: %v", err)
	}
	return wants
}

func findWant(wants []*want, d Diagnostic) *want {
	for _, w := range wants {
		if w.file == d.File && w.line == d.Line && w.rule == d.Rule && strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}
