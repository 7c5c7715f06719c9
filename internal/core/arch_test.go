package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// parseNonTest parses every non-test Go file of dir.
func parseNonTest(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = f
	}
	return files
}

// exportedJoins lists the exported package-level functions named Join*.
func exportedJoins(files map[string]*ast.File) []string {
	var names []string
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Join") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestOneEntryPointPerLayer pins the slim layering: internal/core and the
// textjoin facade each export exactly Join and JoinIntegrated — a variant
// is an Options field, not a function of its own.
func TestOneEntryPointPerLayer(t *testing.T) {
	want := "Join JoinIntegrated"
	if got := strings.Join(exportedJoins(parseNonTest(t, ".")), " "); got != want {
		t.Errorf("internal/core exports %q, want %q", got, want)
	}
	if got := strings.Join(exportedJoins(parseNonTest(t, "../..")), " "); got != want {
		t.Errorf("textjoin exports %q, want %q", got, want)
	}
}

// TestJoinsStartNoGoroutines pins one goroutine per join (DESIGN §8):
// no join file starts a goroutine, so a join's CPU work, storage access
// and failure all happen on its caller's goroutine, and a failed join
// has nothing left to wait for.
func TestJoinsStartNoGoroutines(t *testing.T) {
	for name, f := range parseNonTest(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s starts a goroutine; a join runs on its caller's", name)
			}
			return true
		})
	}
}

// TestJoinFilesHoldNoMaps pins the term-indexed decision (DESIGN §8): no
// join file, nor a file of the entry cache HVNL probes per outer cell or
// of the inverted files it fetches from (FetchEntryInto is on HVNL's
// probe path, and the builds count into arenas), names a map type — not
// in a field, a local, a make or a literal — or imports container/heap,
// whose interface boxes every push.
// Terms, documents, slots and stream positions are dense numbers, so
// every table a join keeps is a slice indexed by one, and a hash on a
// join path is a regression. There is no allowlist.
func TestJoinFilesHoldNoMaps(t *testing.T) {
	for _, dir := range []string{".", "../entrycache", "../invfile"} {
		for name, f := range parseNonTest(t, dir) {
			name = filepath.Join(dir, name)
			for _, imp := range f.Imports {
				if imp.Path.Value == `"container/heap"` {
					t.Errorf("%s imports container/heap; keep a typed heap of dense indices", name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok {
					t.Errorf("%s names %s; index a slice by the dense number instead", name, types.ExprString(m))
				}
				return true
			})
		}
	}
}

// isWeightOperand reports whether e is a float64(x.Weight) conversion.
func isWeightOperand(e ast.Expr) bool {
	if p, ok := e.(*ast.ParenExpr); ok {
		return isWeightOperand(p.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	sel, isSel := call.Args[0].(*ast.SelectorExpr)
	return ok && fun.Name == "float64" && isSel && sel.Sel.Name == "Weight"
}

// TestWeightProductsLiveInAccumOnly pins the one scoring kernel: no join
// file multiplies a cell weight — the product, and with it its
// association, is internal/accum's AddCells (DESIGN §6); the joins pass
// weights and factors along.
func TestWeightProductsLiveInAccumOnly(t *testing.T) {
	for name, f := range parseNonTest(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.MUL && (isWeightOperand(b.X) || isWeightOperand(b.Y)) {
				t.Errorf("%s multiplies a cell weight; only internal/accum may", name)
			}
			return true
		})
	}
}

// storeConstructors are the accum calls that build a VVM similarity store.
var storeConstructors = map[string]bool{"New": true, "NewDense": true, "NewTable": true}

// TestStoresAreBuiltOutsideLoops pins one store per join: no accum.New
// (nor the NewDense/NewTable of older trees) in a join file sits inside a
// for statement, where it would be rebuilt per pass instead of Reset.
func TestStoresAreBuiltOutsideLoops(t *testing.T) {
	for name, f := range parseNonTest(t, ".") {
		var loops []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "accum" || !storeConstructors[sel.Sel.Name] {
				return true
			}
			for _, loop := range loops {
				if loop.Pos() <= call.Pos() && call.End() <= loop.End() {
					t.Errorf("%s: accum.%s inside a for statement; build the store once per join and Reset it", name, sel.Sel.Name)
					break
				}
			}
			return true
		})
	}
}
