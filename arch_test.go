package textjoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
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
// persistence_test.go round-trips every one and ROADMAP item 7(2) is
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
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
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
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
