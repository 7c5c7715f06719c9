package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// resourceLeak is the CFG-based must-release analyzer: a resource
// acquired by a Policy.Resources call must, on every path from the
// acquire to the function's exit, be released (directly or via defer),
// returned, or handed off to another owner. The bug class it exists
// for is the early-error-return that leaks an iosim.Disk.View or
// facade Workspace.Snapshot session: a leaked view never merges its
// per-view IOStats into the shared ledger, silently corrupting the
// paper's Section-5 I/O accounting — invisible to every syntactic
// analyzer because the happy path closes the view correctly. Trace
// spans are the same shape (Start* owes End): a span some path never
// ends is simply missing from the recorded tree, so the leak hides
// exactly when the trace is needed.
//
// Per function scope (literals are separate scopes) the analyzer runs
// a forward merge-over-paths dataflow on the scope's CFG with the
// lattice bottom < invalid < released < acquired < escaped and join =
// max, so "leaks on some path" survives a merge with a clean path
// while a possible hand-off gets the benefit of the doubt. The
// edge-transfer makes it path-sensitive: on a branch edge where the
// acquire's paired error is known non-nil, or the resource itself is
// known nil, the resource is invalid and owes no release — the
// `v, err := acquire(); if err != nil { return err }` idiom is clean.
//
// Events, per node:
//   - acquire call bound to a variable: acquired (binding to _ or
//     using the call as a bare statement is flagged outright);
//   - rule's release method called on the variable: released — a
//     DeferStmt release counts on every later path, which also keeps
//     the defer-in-loop idiom clean, and a deferred closure whose body
//     releases counts the same way;
//   - the variable returned, passed to a call, captured by a literal,
//     or stored anywhere: escaped (ownership transferred);
//   - other method calls on the variable and nil-comparisons: neutral.
//
// Judgment: a return reached with the resource still acquired (and not
// escaping through that return) is flagged at the return; a scope
// whose closing brace is reached still acquired is flagged too. A
// resource with no release, defer, or escape anywhere gets a single
// finding at the acquire instead of one per return.
type resourceLeak struct{ pol *Policy }

func (a *resourceLeak) Name() string { return "resourceleak" }
func (a *resourceLeak) Doc() string {
	return "every acquired resource (trace spans, iosim views, workspace snapshots, listeners, cmd/ file handles) is released, deferred, returned or handed off on every path to exit"
}

func (a *resourceLeak) Check(p *Package) []Diagnostic {
	var rules []*ResourceRule
	for i := range a.pol.Resources {
		r := &a.pol.Resources[i]
		if r.Scope == nil || matchScope(r.Scope, p.Rel) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	var diags []Diagnostic
	eachScope(p, func(name string, body *ast.BlockStmt) {
		diags = append(diags, a.checkScope(p, name, body, rules)...)
	})
	return diags
}

// Resource facts, ordered so join = max favors reporting a possible
// leak (acquired) over a completed release, and a possible hand-off
// (escaped) over a possible leak.
const (
	rlInvalid fact = iota + 1 // acquire failed on this path (err != nil / resource nil)
	rlReleased
	rlAcquired
	rlEscaped
)

// rlTracked is one acquire site bound to a variable.
type rlTracked struct {
	obj     types.Object
	rule    *ResourceRule
	pos     token.Pos
	name    string
	errObj  types.Object // tuple-mate error variable, when the acquire returns (T, error)
	handled bool         // any release/defer/escape event observed anywhere
}

// rlScope carries one scope's analysis state.
type rlScope struct {
	a       *resourceLeak
	p       *Package
	fname   string
	rules   []*ResourceRule
	tracked map[types.Object]*rlTracked
	order   []*rlTracked
}

func (a *resourceLeak) checkScope(p *Package, fname string, body *ast.BlockStmt, rules []*ResourceRule) []Diagnostic {
	sc := &rlScope{a: a, p: p, fname: fname, rules: rules, tracked: make(map[types.Object]*rlTracked)}
	var diags []Diagnostic

	// Pass 1: find acquire sites. Bindings register tracked variables;
	// a discarded acquire is flagged immediately.
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sc.registerAssign(n, &diags)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						sc.registerValueSpec(vs)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if rule := sc.acquireRule(call); rule != nil {
					diags = append(diags, p.diag(a.Name(), call.Pos(),
						"%s acquires a %s and discards it; the resource can never be released", fname, rule.what()))
				}
			}
		}
	})
	if len(sc.tracked) == 0 {
		return diags
	}

	g := buildCFG(body)
	fl := &flow{
		join:     func(x, y fact) fact { return maxFact(x, y) },
		transfer: sc.transfer,
		edge:     sc.edgeTransfer,
	}
	in := fl.forward(g)

	// Judgment pass: pre-states at each return, then the fall-off exit.
	leaks := make(map[*rlTracked][]token.Pos)
	fl.scanBlocks(g, in, func(st flowState, n ast.Node, _ *cfgBlock) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		escapes := make(map[types.Object]bool)
		for _, res := range ret.Results {
			markIdentObjs(sc.p, res, escapes)
		}
		for _, t := range sc.order {
			if st[t.obj] == rlAcquired && !escapes[t.obj] {
				leaks[t] = append(leaks[t], ret.Pos())
			}
		}
	})
	exit := fl.exitState(g, in)

	for _, t := range sc.order {
		line := p.Position(t.pos).Line
		if !t.handled {
			diags = append(diags, p.diag(a.Name(), t.pos,
				"%s acquires %s (%s) but never releases it; call %s.%s on every path, defer it, or hand the resource off",
				fname, t.name, t.rule.what(), t.name, t.rule.Release))
			continue
		}
		for _, pos := range leaks[t] {
			diags = append(diags, p.diag(a.Name(), pos,
				"%s returns without releasing %s (%s acquired at line %d); this path leaks the resource",
				fname, t.name, t.rule.what(), line))
		}
		if exit != nil && exit[t.obj] == rlAcquired {
			diags = append(diags, p.diag(a.Name(), t.pos,
				"%s acquires %s (%s) but the path reaching the end of the function never releases it",
				fname, t.name, t.rule.what()))
		}
	}
	return diags
}

func maxFact(a, b fact) fact {
	if a > b {
		return a
	}
	return b
}

// what renders a rule as "iosim.View"-style prose for messages.
func (r *ResourceRule) what() string {
	pkg := r.Pkg
	if pkg == "." {
		pkg = "facade"
	}
	return pkg + "." + r.Call + " resource"
}

// acquireRule resolves call's callee and matches it against the active
// rules, returning the matched rule or nil.
func (sc *rlScope) acquireRule(call *ast.CallExpr) *ResourceRule {
	fn := calleeFunc(sc.p, call)
	if fn == nil {
		return nil
	}
	path := fn.Pkg().Path()
	for _, r := range sc.rules {
		if r.Call == fn.Name() && rulePkgPath(sc.p, r.Pkg) == path {
			return r
		}
	}
	return nil
}

// rulePkgPath resolves a policy package field to a full import path:
// "." is the module root (the facade), module-internal paths get the
// module prefix, anything else is a stdlib path used verbatim.
func rulePkgPath(p *Package, pkg string) string {
	if pkg == "." {
		return p.Module
	}
	if pkg == "internal" || pkg == "cmd" ||
		len(pkg) > 9 && pkg[:9] == "internal/" || len(pkg) > 4 && pkg[:4] == "cmd/" {
		return p.Module + "/" + pkg
	}
	return pkg
}

// registerAssign records acquire bindings in an assignment and flags
// acquires dropped into the blank identifier.
func (sc *rlScope) registerAssign(n *ast.AssignStmt, diags *[]Diagnostic) {
	// Tuple form: v, err := acquire().
	if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
			if rule := sc.acquireRule(call); rule != nil {
				sc.bind(n.Lhs[0], n.Lhs[1], call, rule, diags)
				return
			}
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if rule := sc.acquireRule(call); rule != nil {
			sc.bind(n.Lhs[i], nil, call, rule, diags)
		}
	}
}

// specAcquire matches `var v[, err] = acquire()` and returns the call
// with its rule, or nils for any other spec — a bare `var v T` among
// them, which declares a name and acquires nothing.
func (sc *rlScope) specAcquire(vs *ast.ValueSpec) (*ast.CallExpr, *ResourceRule) {
	if len(vs.Values) != 1 {
		return nil, nil
	}
	call, ok := vs.Values[0].(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	return call, sc.acquireRule(call)
}

// registerValueSpec records `var v = acquire()` bindings.
func (sc *rlScope) registerValueSpec(vs *ast.ValueSpec) {
	call, rule := sc.specAcquire(vs)
	if rule == nil {
		return
	}
	var errIdent *ast.Ident
	if len(vs.Names) == 2 {
		errIdent = vs.Names[1]
	}
	sc.bindIdent(vs.Names[0], errIdent, call, rule)
}

func (sc *rlScope) bind(lhs, errLhs ast.Expr, call *ast.CallExpr, rule *ResourceRule, diags *[]Diagnostic) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		// Stored straight into a field or element: handed off.
		return
	}
	if id.Name == "_" {
		*diags = append(*diags, sc.p.diag(sc.a.Name(), call.Pos(),
			"%s acquires a %s and discards it; the resource can never be released", sc.fname, rule.what()))
		return
	}
	var errIdent *ast.Ident
	if errLhs != nil {
		if eid, ok := errLhs.(*ast.Ident); ok && eid.Name != "_" {
			errIdent = eid
		}
	}
	sc.bindIdent(id, errIdent, call, rule)
}

func (sc *rlScope) bindIdent(id, errIdent *ast.Ident, call *ast.CallExpr, rule *ResourceRule) {
	obj := objOf(sc.p, id)
	if obj == nil {
		return
	}
	if _, seen := sc.tracked[obj]; seen {
		return
	}
	t := &rlTracked{obj: obj, rule: rule, pos: call.Pos(), name: id.Name}
	if errIdent != nil {
		t.errObj = objOf(sc.p, errIdent)
	}
	sc.tracked[obj] = t
	sc.order = append(sc.order, t)
}

// transfer applies one CFG node's resource events to the state.
func (sc *rlScope) transfer(st flowState, n ast.Node) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		sc.transferDefer(st, n)
		return
	case *ast.ReturnStmt:
		escapes := make(map[types.Object]bool)
		for _, res := range n.Results {
			markIdentObjs(sc.p, res, escapes)
		}
		for obj := range escapes {
			if t := sc.tracked[obj]; t != nil {
				t.handled = true
				st[obj] = rlEscaped
			}
		}
		return
	}
	sc.scanNode(st, n)
}

// transferDefer handles defer statements: a deferred release (direct
// or inside a deferred closure) marks the resource released on every
// later path; deferring the resource into any other call hands it off.
func (sc *rlScope) transferDefer(st flowState, n *ast.DeferStmt) {
	call := n.Call
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if t := sc.tracked[objOf(sc.p, id)]; t != nil {
				t.handled = true
				if sel.Sel.Name == t.rule.Release {
					st[t.obj] = rlReleased
				} else {
					// Deferring some other method keeps the question open;
					// treat as neutral, args below may still escape.
					st[t.obj] = maxFact(st[t.obj], rlAcquired)
				}
			}
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// defer func() { v.Close() }(): scan the closure body for
		// releases; any other captured use is a hand-off.
		released := make(map[types.Object]bool)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			c, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if t := sc.tracked[objOf(sc.p, id)]; t != nil && sel.Sel.Name == t.rule.Release {
				released[t.obj] = true
			}
			return true
		})
		for obj := range released {
			sc.tracked[obj].handled = true
			st[obj] = rlReleased
		}
		if len(released) > 0 {
			return
		}
	}
	// Tracked resources passed as arguments to the deferred call (for
	// example `defer cleanup(v)`) are handed off.
	for _, arg := range call.Args {
		escapes := make(map[types.Object]bool)
		markIdentObjs(sc.p, arg, escapes)
		for obj := range escapes {
			if t := sc.tracked[obj]; t != nil {
				t.handled = true
				st[obj] = rlEscaped
			}
		}
	}
}

// scanNode handles every other node kind: acquire bindings set the
// acquired fact, release calls set released, any remaining use of a
// tracked variable outside a method-receiver position or a
// nil-comparison is a hand-off.
func (sc *rlScope) scanNode(st flowState, n ast.Node) {
	// Identify benign ident occurrences first: method-call receivers
	// (releases among them), nil comparisons, and the binding LHS of an
	// acquire assignment.
	benign := make(map[*ast.Ident]bool)
	walkFlowNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if t := sc.tracked[objOf(sc.p, id)]; t != nil {
						benign[id] = true
						if sel.Sel.Name == t.rule.Release {
							t.handled = true
							st[t.obj] = rlReleased
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if m.Op == token.EQL || m.Op == token.NEQ {
				if id := identComparedToNil(m); id != nil {
					benign[id] = true
				}
			}
		}
		return true
	})

	// Acquire bindings: the LHS ident of a registered acquire is a
	// definition, not an escape, and flips the fact to acquired.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if t := sc.tracked[objOf(sc.p, id)]; t != nil {
					benign[id] = true
					// Re-binding the variable: an acquire RHS re-acquires,
					// anything else ends tracking on this path.
					if sc.assignsAcquire(as, id) {
						st[t.obj] = rlAcquired
					} else {
						delete(st, t.obj)
					}
				}
			}
		}
	}
	if ds, ok := n.(*ast.DeclStmt); ok {
		if gd, ok := ds.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					_, rule := sc.specAcquire(vs)
					for i, name := range vs.Names {
						if t := sc.tracked[objOf(sc.p, name)]; t != nil {
							benign[name] = true
							// Like a re-binding assignment: only an acquire
							// value acquires; a bare declaration (the acquire
							// comes later) owes nothing on this path yet.
							if rule != nil && i == 0 {
								st[t.obj] = rlAcquired
							} else {
								delete(st, t.obj)
							}
						}
					}
				}
			}
		}
	}

	// Everything else: a non-benign occurrence of a tracked variable
	// transfers ownership (call argument, composite literal, map key,
	// assignment into a field, capture by a function literal, ...).
	walkFlowNode(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && m != n {
			// A closure capturing the resource shares ownership with it.
			captures := make(map[types.Object]bool)
			markIdentObjs(sc.p, lit, captures)
			for obj := range captures {
				if t := sc.tracked[obj]; t != nil {
					t.handled = true
					st[obj] = rlEscaped
				}
			}
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		if t := sc.tracked[objOf(sc.p, id)]; t != nil && id.Pos() != t.pos {
			t.handled = true
			st[t.obj] = rlEscaped
		}
		return true
	})
}

// assignsAcquire reports whether, within as, the value assigned to id
// comes from an acquire call (direct or tuple position 0).
func (sc *rlScope) assignsAcquire(as *ast.AssignStmt, id *ast.Ident) bool {
	if len(as.Lhs) == 2 && len(as.Rhs) == 1 && as.Lhs[0] == id {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			return sc.acquireRule(call) != nil
		}
		return false
	}
	for i, lhs := range as.Lhs {
		if lhs == id && i < len(as.Rhs) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				return sc.acquireRule(call) != nil
			}
		}
	}
	return false
}

// edgeTransfer is the path-sensitivity hook: along a branch edge where
// the acquire's paired error is known non-nil, or the resource itself
// is known nil, the acquire failed and the resource owes no release.
func (sc *rlScope) edgeTransfer(st flowState, cond ast.Expr, branch bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	id := identComparedToNil(be)
	if id == nil {
		return
	}
	obj := objOf(sc.p, id)
	if obj == nil {
		return
	}
	// isNil: on this edge, id == nil holds.
	isNil := (be.Op == token.EQL) == branch
	if t := sc.tracked[obj]; t != nil && isNil && st[obj] == rlAcquired {
		st[obj] = rlInvalid
		return
	}
	if isNil {
		// id == nil holds: an error known nil validates nothing to undo,
		// and the resource-is-nil case was handled above.
		return
	}
	// err != nil on this edge: the acquire failed, its resource is nil
	// and owes no release.
	for _, t := range sc.order {
		if t.errObj == obj && st[t.obj] == rlAcquired {
			st[t.obj] = rlInvalid
		}
	}
}

// identComparedToNil returns the ident compared against nil in a
// binary ==/!= expression, or nil.
func identComparedToNil(be *ast.BinaryExpr) *ast.Ident {
	if isNilIdent(be.Y) {
		if id, ok := be.X.(*ast.Ident); ok {
			return id
		}
	}
	if isNilIdent(be.X) {
		if id, ok := be.Y.(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// markIdentObjs collects the objects of every ident under e (function
// literals included — a capture is a use).
func markIdentObjs(p *Package, e ast.Node, out map[types.Object]bool) {
	ast.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if o := p.Info.Uses[id]; o != nil {
				out[o] = true
			}
		}
		return true
	})
}
