package analysis

import (
	"go/ast"
	"go/types"
)

// mapDeterminism flags `for range` over a map inside the
// result-producing packages of Policy.MapDeterminism. Go randomizes
// map iteration order, so any map walk on a path that feeds join
// results, accumulator drains or query output is a nondeterminism bug
// waiting for a baseline diff — the repo's parallel-identity and
// byte-stable-benchmark promises all assume ordered production.
//
// A map range is accepted when the surrounding function visibly
// restores order afterwards: a call into package sort or slices
// (Sort/Slice/Strings/Sorted/...) positioned after the loop's start.
// That covers the collect-keys-then-sort idiom without data-flow
// analysis; a loop that is order-independent for a subtler reason
// documents it with a lint:ignore directive.
type mapDeterminism struct{ pol *Policy }

func (a *mapDeterminism) Name() string { return "mapdeterminism" }
func (a *mapDeterminism) Doc() string {
	return "flag map iteration in result-producing packages unless the enclosing function sorts afterwards"
}

// sortFuncs are the package-level functions of sort and slices that
// restore a deterministic order.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
	"Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
}

func (a *mapDeterminism) Check(p *Package) []Diagnostic {
	if !containsString(a.pol.MapDeterminism, p.Rel) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if a.feedsSort(p, fd, rs) {
					return true
				}
				diags = append(diags, p.diag(a.Name(), rs.Pos(),
					"range over map in %s: iteration order is nondeterministic; collect and sort, or justify with //lint:ignore %s <reason>",
					fd.Name.Name, a.Name()))
				return true
			})
		}
	}
	return diags
}

// feedsSort reports whether fd calls a sorting function at a position
// after the range statement begins.
func (a *mapDeterminism) feedsSort(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		if pkgPathOf(p, sel.X) == "sort" || pkgPathOf(p, sel.X) == "slices" {
			found = true
			return false
		}
		return true
	})
	return found
}

// pkgPathOf resolves e to the import path of the package it names, or
// "" when e is not a package qualifier.
func pkgPathOf(p *Package, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
