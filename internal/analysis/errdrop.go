package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// errDrop flags dropped errors on policy-listed persistence, write and
// Close paths. A dropped error in this codebase is usually a corrupted
// measurement: an unchecked page-write error means the btree or the
// inverted file silently diverges from the cost the ledger charged for
// it, and an unchecked Close in a cmd/ tool means a truncated report
// file exits 0.
//
// Three syntactic forms are flagged directly:
//   - a call used as a bare expression statement whose result (or any
//     tuple component) is an error — unless the callee's package is on
//     the ErrDropExempt list (fmt printers, bytes.Buffer writes and
//     friends whose errors are vacuous by contract);
//   - an error-typed result assigned to the blank identifier, in
//     single-value or tuple position;
//
// and one path-sensitive form rides the CFG dataflow: an error value
// that is assigned and then, on some path, overwritten or abandoned at
// a return without ever being consulted. Facts are bottom < fresh <
// consulted with join = max, so a merge where either branch consulted
// the error is clean, while a return reached before any consultation is
// judged on its own path's pre-state. Error variables that escape the
// scope — address taken or captured by a function literal — are exempt:
// the analyzer cannot see their consumers.
//
// go and defer statements are never flagged here (a deferred Close's
// error is a separate idiom, policed by resourceleak's pairing instead).
type errDrop struct{ pol *Policy }

func (a *errDrop) Name() string { return "errdrop" }
func (a *errDrop) Doc() string {
	return "error results on persistence/write/Close paths are consulted: no _ assignments, no bare-statement discards, no overwrite or return before use"
}
func (a *errDrop) NeedsTypes() bool { return true }

func (a *errDrop) Check(p *Package) []Diagnostic {
	if p.Info == nil || !matchScope(a.pol.ErrDrop, p.Rel) {
		return nil
	}
	var diags []Diagnostic
	eachScope(p, func(name string, body *ast.BlockStmt) {
		diags = append(diags, a.checkScope(p, name, body)...)
	})
	return diags
}

const (
	edFresh fact = iota + 1 // assigned, not yet consulted
	edConsulted
)

type edScope struct {
	a     *errDrop
	p     *Package
	fname string
	// candidates are the local error-typed variables the flow tracks.
	candidates map[types.Object]bool
	lastAssign map[types.Object]token.Pos
}

func (a *errDrop) checkScope(p *Package, fname string, body *ast.BlockStmt) []Diagnostic {
	sc := &edScope{a: a, p: p, fname: fname,
		candidates: make(map[types.Object]bool),
		lastAssign: make(map[types.Object]token.Pos)}
	var diags []Diagnostic

	// Syntactic pass: bare-statement and blank-identifier discards, plus
	// candidate discovery for the flow pass.
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if pos, callee := sc.discardedError(call); pos.IsValid() {
					diags = append(diags, p.diag(a.Name(), pos,
						"%s discards the error returned by %s; handle it or suppress with a reason", fname, callee))
				}
			}
		case *ast.AssignStmt:
			diags = append(diags, sc.blankErrors(n)...)
			sc.collectCandidates(n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						sc.collectSpecCandidates(vs)
					}
				}
			}
		}
	})

	// Escape pass: error variables that are address-taken anywhere or
	// mentioned inside a nested function literal have consumers the
	// intraprocedural flow cannot see — drop them from tracking.
	if len(sc.candidates) > 0 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := n.X.(*ast.Ident); ok {
						delete(sc.candidates, objOf(p, id))
					}
				}
			case *ast.FuncLit:
				if n.Body != body {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							delete(sc.candidates, objOf(p, id))
						}
						return true
					})
					return false
				}
			}
			return true
		})
	}
	if len(sc.candidates) == 0 {
		return diags
	}

	g := buildCFG(body)
	fl := &flow{
		join:     func(x, y fact) fact { return maxFact(x, y) },
		transfer: sc.transfer,
	}
	in := fl.forward(g)

	seen := make(map[token.Pos]bool)
	fl.scanBlocks(g, in, func(st flowState, n ast.Node, _ *cfgBlock) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Overwriting a still-fresh error is a drop at the overwrite.
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := objOf(p, id)
				if sc.candidates[obj] && st[obj] == edFresh && !seen[id.Pos()] {
					seen[id.Pos()] = true
					diags = append(diags, p.diag(a.Name(), id.Pos(),
						"%s overwrites %s before the previous error (assigned at line %d) was consulted",
						fname, id.Name, p.Position(sc.lastAssign[obj]).Line))
				}
			}
		case *ast.ReturnStmt:
			// A fresh error abandoned at a return that does not carry it.
			returned := make(map[types.Object]bool)
			for _, res := range n.Results {
				markIdentObjs(p, res, returned)
			}
			if len(n.Results) == 0 {
				// A bare return forwards every named result.
				for obj := range sc.candidates {
					if v, ok := obj.(*types.Var); ok && v.IsField() == false && sc.isNamedResult(body, obj) {
						returned[obj] = true
					}
				}
			}
			for obj := range sc.candidates {
				if st[obj] == edFresh && !returned[obj] && !seen[n.Pos()] {
					diags = append(diags, p.diag(a.Name(), n.Pos(),
						"%s returns while the error in %s (assigned at line %d) is still unconsulted on this path",
						fname, obj.Name(), p.Position(sc.lastAssign[obj]).Line))
					seen[n.Pos()] = true
				}
			}
		}
	})
	if exit := fl.exitState(g, in); exit != nil {
		for obj := range sc.candidates {
			if exit[obj] == edFresh {
				diags = append(diags, p.diag(a.Name(), sc.lastAssign[obj],
					"%s assigns an error to %s but never consults it before the function ends", fname, obj.Name()))
			}
		}
	}
	return diags
}

// transfer: assignments refresh or clear tracked errors, every other
// ident use consults them.
func (sc *edScope) transfer(st flowState, n ast.Node) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	assignedHere := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		errorPos := errorPositions(sc.p, as)
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOf(sc.p, id)
			if !sc.candidates[obj] {
				continue
			}
			assignedHere[id] = true
			if errorPos[i] {
				st[obj] = edFresh
			} else {
				delete(st, obj)
			}
		}
	}
	if ds, ok := n.(*ast.DeclStmt); ok {
		if gd, ok := ds.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := objOf(sc.p, name); sc.candidates[obj] {
						assignedHere[name] = true
						st[obj] = edFresh
					}
				}
			}
		}
	}
	// Any other mention of a candidate on this node consults it: a
	// comparison, a return carrying it, a call argument, a wrap.
	walkFlowNode(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || assignedHere[id] {
			return true
		}
		if obj := objOf(sc.p, id); sc.candidates[obj] {
			st[obj] = edConsulted
		}
		return true
	})
}

// discardedError reports whether call's result is (or contains) an
// error that a bare expression statement throws away, returning the
// diagnostic position and a printable callee name.
func (sc *edScope) discardedError(call *ast.CallExpr) (token.Pos, string) {
	if !resultHasError(sc.p, call) || sc.exemptCall(call) {
		return token.NoPos, ""
	}
	if fn := calleeFunc(sc.p, call); fn != nil {
		return call.Pos(), fn.Pkg().Name() + "." + fn.Name()
	}
	return call.Pos(), "the call"
}

// exemptCall reports whether call's error is vacuous by contract: the
// package that states the contract is on Policy.ErrDropExempt. That is
// the callee's package, except for an interface method — h.Write on a
// hash.Hash64 resolves to io.Writer.Write, declared in io, while the
// never-fails promise is hash.Hash's — where the receiver expression's
// static named type speaks for the contract.
func (sc *edScope) exemptCall(call *ast.CallExpr) bool {
	fn := calleeFunc(sc.p, call)
	if fn == nil {
		return false
	}
	pkg := fn.Pkg()
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if recv := fn.Type().(*types.Signature).Recv(); isSel && recv != nil && types.IsInterface(recv.Type()) {
		if named, ok := sc.p.Info.TypeOf(sel.X).(*types.Named); ok && named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg()
		}
	}
	return containsString(sc.a.pol.ErrDropExempt, pkg.Path())
}

// blankErrors flags error results assigned to the blank identifier.
// Only call results count: `_ = err` on an existing variable is an
// explicit discard of a value the flow pass already judged at its
// producing call.
func (sc *edScope) blankErrors(as *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	errorPos := errorPositions(sc.p, as)
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || !errorPos[i] {
			continue
		}
		// The _ = err idiom still hides an error; policy wants a reason.
		if call, ok := blankSource(as, i).(*ast.CallExpr); !ok || sc.exemptCall(call) {
			continue
		}
		diags = append(diags, sc.p.diag(sc.a.Name(), id.Pos(),
			"%s assigns an error to _; handle it or suppress with a reason", sc.fname))
	}
	return diags
}

// blankSource returns the expression feeding LHS slot i.
func blankSource(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	if i < len(as.Rhs) {
		return as.Rhs[i]
	}
	return nil
}

// errorPositions maps each LHS index of an assignment to whether an
// error value lands there.
func errorPositions(p *Package, as *ast.AssignStmt) map[int]bool {
	out := make(map[int]bool)
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if tup, ok := p.Info.TypeOf(as.Rhs[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < len(as.Lhs); i++ {
				if isErrorType(tup.At(i).Type()) {
					out[i] = true
				}
			}
		}
		// v, ok := m[k] / x, ok := y.(T) never carry errors; TypeOf
		// returns the value type there, which isErrorType rejects above.
		return out
	}
	for i := range as.Lhs {
		if i < len(as.Rhs) && as.Rhs[i] != nil {
			if t := p.Info.TypeOf(as.Rhs[i]); t != nil && isErrorType(t) {
				out[i] = true
			}
		}
	}
	return out
}

// resultHasError reports whether a call's result type is or contains
// the error type.
func resultHasError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// collectCandidates registers local error variables assigned by as.
func (sc *edScope) collectCandidates(as *ast.AssignStmt) {
	errorPos := errorPositions(sc.p, as)
	for i, lhs := range as.Lhs {
		if !errorPos[i] {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objOf(sc.p, id)
		if obj == nil {
			continue
		}
		sc.candidates[obj] = true
		if p := sc.lastAssign[obj]; !p.IsValid() || id.Pos() > p {
			sc.lastAssign[obj] = id.Pos()
		}
	}
}

func (sc *edScope) collectSpecCandidates(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		var t types.Type
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if tup, ok := sc.p.Info.TypeOf(vs.Values[0]).(*types.Tuple); ok && i < tup.Len() {
				t = tup.At(i).Type()
			}
		} else if i < len(vs.Values) {
			t = sc.p.Info.TypeOf(vs.Values[i])
		}
		if t == nil || !isErrorType(t) {
			continue
		}
		obj := objOf(sc.p, name)
		if obj == nil {
			continue
		}
		sc.candidates[obj] = true
		sc.lastAssign[obj] = name.Pos()
	}
}

// isNamedResult reports whether obj is one of the enclosing function's
// named results. The receiver scope walk is cheap: named results are
// declared at the body's position in the function type, so the object's
// position precedes the body.
func (sc *edScope) isNamedResult(body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() < body.Pos()
}
