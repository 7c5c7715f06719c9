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
// Two syntactic forms are flagged:
//   - a call used as a bare expression statement whose result (or any
//     tuple component) is an error — unless the callee's package is on
//     the ErrDropExempt list (fmt printers, bytes.Buffer writes and
//     friends whose errors are vacuous by contract);
//   - an error-typed call result assigned to the blank identifier, in
//     single-value or tuple position, with := or plain =.
//
// go and defer statements are never flagged here (a deferred Close's
// error is a separate idiom, policed by resourceleak's pairing instead).
type errDrop struct{ pol *Policy }

func (a *errDrop) Name() string { return "errdrop" }
func (a *errDrop) Doc() string {
	return "error results on persistence/write/Close paths are consulted: no _ assignments, no bare-statement discards"
}

func (a *errDrop) Check(p *Package) []Diagnostic {
	if !matchScope(a.pol.ErrDrop, p.Rel) {
		return nil
	}
	var diags []Diagnostic
	eachScope(p, func(fname string, body *ast.BlockStmt) {
		inspectScope(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if pos, callee := a.discardedError(p, call); pos.IsValid() {
						diags = append(diags, p.diag(a.Name(), pos,
							"%s discards the error returned by %s; handle it or suppress with a reason", fname, callee))
					}
				}
			case *ast.AssignStmt:
				diags = append(diags, a.blankErrors(p, fname, n)...)
			}
		})
	})
	return diags
}

// discardedError reports whether call's result is (or contains) an
// error that a bare expression statement throws away, returning the
// diagnostic position and a printable callee name.
func (a *errDrop) discardedError(p *Package, call *ast.CallExpr) (token.Pos, string) {
	if !resultHasError(p, call) || a.exemptCall(p, call) {
		return token.NoPos, ""
	}
	if fn := calleeFunc(p, call); fn != nil {
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
func (a *errDrop) exemptCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	pkg := fn.Pkg()
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if recv := fn.Type().(*types.Signature).Recv(); isSel && recv != nil && types.IsInterface(recv.Type()) {
		if named, ok := p.Info.TypeOf(sel.X).(*types.Named); ok && named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg()
		}
	}
	return containsString(a.pol.ErrDropExempt, pkg.Path())
}

// blankErrors flags error results assigned to the blank identifier,
// in single-value or tuple position. Only call results count: `_ = err`
// on an existing variable is an explicit discard of a value already in
// hand.
func (a *errDrop) blankErrors(p *Package, fname string, as *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			continue
		}
		src := as.Rhs[0]
		var t types.Type
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			// v, ok := m[k] and x, ok := y.(T) type as their value, not a
			// tuple, so they never reach here.
			if tup, ok := p.Info.TypeOf(src).(*types.Tuple); ok {
				t = tup.At(i).Type()
			}
		} else {
			src = as.Rhs[i]
			t = p.Info.TypeOf(src)
		}
		call, ok := src.(*ast.CallExpr)
		if !ok || t == nil || !isErrorType(t) || a.exemptCall(p, call) {
			continue
		}
		diags = append(diags, p.diag(a.Name(), lhs.Pos(),
			"%s assigns an error to _; handle it or suppress with a reason", fname))
	}
	return diags
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
