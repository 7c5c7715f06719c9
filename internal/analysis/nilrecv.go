package analysis

import (
	"go/ast"
	"go/token"
)

// nilRecv enforces the telemetry layer's disabled-path contract: every
// exported pointer-receiver method on the types listed in
// Policy.NilRecv must begin with a nil-receiver guard, so instrumented
// code can hold plain fields and call unconditionally. Accepted guard
// forms, both as the method's first statement:
//
//	if c == nil { ... }          (either comparison order, any operator
//	if c != nil { ... }           among ==/!=, possibly part of a larger
//	                              condition)
//	return c != nil              (a return whose expression compares the
//	                              receiver against nil, e.g. Enabled)
//
// Methods with an unnamed or blank receiver cannot dereference it and
// are trivially nil-safe, so they pass. The check is syntactic.
type nilRecv struct{ pol *Policy }

func (a *nilRecv) Name() string { return "nilrecv" }
func (a *nilRecv) Doc() string {
	return "exported pointer-receiver methods on the nil-safe telemetry/metrics types must begin with a nil-receiver guard"
}

func (a *nilRecv) Check(p *Package) []Diagnostic {
	typeNames := a.pol.NilRecv[p.Rel]
	if len(typeNames) == 0 {
		return nil
	}
	guarded := make(map[string]bool, len(typeNames))
	for _, t := range typeNames {
		guarded[t] = true
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			if !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue // value receivers copy; nil does not reach them
			}
			base, ok := star.X.(*ast.Ident)
			if !ok || !guarded[base.Name] {
				continue
			}
			recvName := receiverName(fd.Recv.List[0])
			if recvName == "" || recvName == "_" {
				continue // receiver never dereferenced
			}
			if !beginsWithNilGuard(fd.Body, recvName) {
				diags = append(diags, p.diag(a.Name(), fd.Name.Pos(),
					"exported method (*%s).%s must begin with a nil-receiver guard (`if %s == nil`), per the nil-safe collector contract",
					base.Name, fd.Name.Name, recvName))
			}
		}
	}
	return diags
}

func receiverName(field *ast.Field) string {
	if len(field.Names) == 0 {
		return ""
	}
	return field.Names[0].Name
}

// beginsWithNilGuard reports whether the first statement of body is a
// recognized nil-receiver guard for recv.
func beginsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	switch s := body.List[0].(type) {
	case *ast.IfStmt:
		return containsNilCompare(s.Cond, recv)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if containsNilCompare(res, recv) {
				return true
			}
		}
	}
	return false
}

// containsNilCompare walks e for a `recv == nil` / `recv != nil`
// comparison (either operand order).
func containsNilCompare(e ast.Expr, recv string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isIdent(be.X, recv) && isIdent(be.Y, "nil") ||
			isIdent(be.X, "nil") && isIdent(be.Y, recv) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
