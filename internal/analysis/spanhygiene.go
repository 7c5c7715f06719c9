package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// spanHygiene enforces the request-tracing contract on the serving
// path: a span that is started must be ended. A request trace with
// dangling spans silently loses the phases the operator is trying to
// see — the span simply never appears in the recorded tree — so the
// leak is invisible exactly when the trace is needed.
//
// Within a Policy.SpanScope package, a "span start" is a call whose
// callee name begins with Start (or start) and whose result is a span
// type: a named type carrying an End method that either lives in a
// Policy.SpanPackages package or embeds such a type in a struct field
// (which is how a per-package wrapper around a span is caught). The
// rules, per function scope:
//
//   - a start whose result is discarded (expression statement or
//     assignment to _) is flagged outright, unless End is chained onto
//     it in the same expression;
//   - a span variable with `defer x.End()` is always fine — the
//     deferred End runs on every return path, panics included;
//   - a span variable never ended at all is flagged at the start;
//   - with only explicit Ends, every return after the start must have
//     an End before it in source order — the early-error-return that
//     forgets to close the phase span is the bug this catches.
//
// The analysis is straight-line per scope, like mutexhygiene: function
// literals are separate scopes, and a span that escapes the scope
// (passed to a call, returned, stored in a composite literal or another
// variable) transfers the End responsibility and is not tracked
// further. False negatives are accepted; a finding is always a span
// that some path genuinely abandons or an escape the analyzer cannot
// see through — the latter is what //lint:ignore with a reason is for.
type spanHygiene struct{ pol *Policy }

func (a *spanHygiene) Name() string { return "spanhygiene" }
func (a *spanHygiene) Doc() string {
	return "every request-trace span started on a serving-path package is ended on all return paths (or deferred, or handed off)"
}
func (a *spanHygiene) NeedsTypes() bool { return true }

func (a *spanHygiene) Check(p *Package) []Diagnostic {
	if p.Info == nil || !containsString(a.pol.SpanScope, p.Rel) {
		return nil
	}
	spanPkgs := make(map[string]bool, len(a.pol.SpanPackages))
	for _, rel := range a.pol.SpanPackages {
		spanPkgs[p.Module+"/"+rel] = true
	}

	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, scope := range functionScopes(fd.Body) {
				diags = append(diags, a.checkScope(p, fd, scope, spanPkgs)...)
			}
		}
	}
	return diags
}

// spanVar tracks one span-holding variable within a scope.
type spanVar struct {
	name     string
	start    token.Pos
	deferEnd bool
	escaped  bool
	ends     []token.Pos
}

// checkScope runs the per-scope analysis: collect span starts, then
// classify every other touch of each span variable, then judge the
// return paths.
func (a *spanHygiene) checkScope(p *Package, fd *ast.FuncDecl, scope *ast.BlockStmt, spanPkgs map[string]bool) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: span starts. Assignments bind a variable; a start used as
	// a bare statement or assigned to _ drops the span on the floor.
	spans := make(map[types.Object]*spanVar)
	var order []types.Object
	inspectScope(scope, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !a.isSpanStart(p, call, spanPkgs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					diags = append(diags, p.diag(a.Name(), call.Pos(),
						"%s starts a span and discards it; a dropped span never appears in the trace", fd.Name.Name))
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, seen := spans[obj]; !seen {
					spans[obj] = &spanVar{name: id.Name, start: call.Pos()}
					order = append(order, obj)
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && a.isSpanStart(p, call, spanPkgs) {
				diags = append(diags, p.diag(a.Name(), call.Pos(),
					"%s starts a span and discards it; a dropped span never appears in the trace", fd.Name.Name))
			}
		}
	})
	if len(spans) == 0 {
		return diags
	}

	// Pass 2: every other touch of a tracked variable. A method call on
	// the span (End, SetAttr, StartChild, ...) is fine; any use outside
	// a receiver position hands the span off and ends tracking.
	deferred := make(map[*ast.CallExpr]bool)
	recv := make(map[*ast.Ident]bool)
	var returns []token.Pos
	inspectScope(scope, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			sv := spans[p.Info.Uses[id]]
			if sv == nil {
				return
			}
			recv[id] = true
			if sel.Sel.Name != "End" {
				return
			}
			if deferred[n] {
				sv.deferEnd = true
			} else {
				sv.ends = append(sv.ends, n.Pos())
			}
		}
	})
	// Defer statements are visited after the call in some orders; walk
	// again for receivers of deferred Ends missed above.
	inspectScope(scope, func(n ast.Node) {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return
		}
		sel, ok := d.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if sv := spans[p.Info.Uses[id]]; sv != nil {
				sv.deferEnd = true
				recv[id] = true
			}
		}
	})
	inspectScope(scope, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || recv[id] {
			return
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return
		}
		if sv := spans[obj]; sv != nil && id.Pos() != sv.start {
			// Receiver positions were marked above; anything else is a
			// hand-off (call argument, return value, composite literal,
			// reassignment) — but a selector receiver outside a call
			// (method value) also lands here and counts as an escape.
			if !isReceiverIdent(scope, id) {
				sv.escaped = true
			}
		}
	})
	sort.Slice(returns, func(i, j int) bool { return returns[i] < returns[j] })

	for _, obj := range order {
		sv := spans[obj]
		if sv.escaped || sv.deferEnd {
			continue
		}
		if len(sv.ends) == 0 {
			diags = append(diags, p.diag(a.Name(), sv.start,
				"%s starts span %s but never ends it; call %s.End() on every return path or defer it",
				fd.Name.Name, sv.name, sv.name))
			continue
		}
		sort.Slice(sv.ends, func(i, j int) bool { return sv.ends[i] < sv.ends[j] })
		for _, ret := range returns {
			if ret < sv.start {
				continue
			}
			if sv.ends[0] > ret {
				diags = append(diags, p.diag(a.Name(), ret,
					"%s returns without ending span %s; this path leaves the span open and drops it from the trace",
					fd.Name.Name, sv.name))
			}
		}
	}
	return diags
}

// isReceiverIdent reports whether id appears as the X of a selector
// expression that is called — i.e. a method call receiver.
func isReceiverIdent(scope *ast.BlockStmt, id *ast.Ident) bool {
	found := false
	inspectScope(scope, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.X == id {
			found = true
		}
	})
	return found
}

// isSpanStart reports whether call is a span-producing start call: the
// callee name begins with Start/start and the result is a span type.
func (a *spanHygiene) isSpanStart(p *Package, call *ast.CallExpr, spanPkgs map[string]bool) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	if !strings.HasPrefix(id.Name, "Start") && !strings.HasPrefix(id.Name, "start") {
		return false
	}
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	return isSpanType(tv.Type, spanPkgs, make(map[types.Type]bool))
}

// isSpanType reports whether t is a span: a named type with an End
// method that is either defined in a span package or wraps such a type
// in a struct field.
func isSpanType(t types.Type, spanPkgs map[string]bool, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if ptr, ok := t.(*types.Pointer); ok {
		return isSpanType(ptr.Elem(), spanPkgs, seen)
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	hasEnd := false
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "End" {
			hasEnd = true
			break
		}
	}
	if !hasEnd {
		return false
	}
	if obj := named.Obj(); obj.Pkg() != nil && spanPkgs[obj.Pkg().Path()] {
		return true
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if isSpanType(st.Field(i).Type(), spanPkgs, seen) {
				return true
			}
		}
	}
	return false
}
