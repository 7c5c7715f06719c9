package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// cfg.go builds the intraprocedural control-flow graph the
// path-sensitive analyzer (resourceleak) runs on.
// One graph covers one function scope: a FuncDecl body or a FuncLit
// body — never both, a literal is its own scope (eachScope enumerates
// them, inspectScope walks one without entering the next).
//
// Blocks hold the scope's leaf nodes in execution order: plain
// statements verbatim, plus the decomposed pieces of control
// statements (an if's Init and Cond, a for's Init/Cond/Post, a
// switch's Tag, a select clause's Comm). Nested statement bodies live
// in their own blocks, so a node never contains another node — except
// a RangeStmt, which is emitted whole as its loop header (its Body is
// still separate); walkFlowNode knows to skip it.
//
// Edges carry the branch condition where one exists: an IfStmt or
// for-loop condition produces a (cond, true) edge and a (cond, false)
// edge, which is what lets an analyzer's edge-transfer refine state by
// path — `if err != nil { return err }` invalidates the resource on
// exactly the error branch. Return statements edge to the synthetic
// exit block. `panic(...)`, `os.Exit(...)`, `runtime.Goexit()` and
// `log.Fatal*(...)` terminate their block with no successor: code
// after them is unreachable and, for leak purposes, a resource held at
// a panic is the runtime's problem, not the analyzer's.
//
// A defer statement is an ordinary node. Its exit-edge semantics —
// the deferred call runs on every path to exit that passes the defer —
// fall out of forward dataflow naturally: a transfer function that
// marks a resource released at the DeferStmt is exactly "released on
// every subsequent exit path", while paths that never execute the
// defer keep their unreleased state.

// cfgEdge is one successor edge, optionally labelled with the branch
// condition that selects it.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr // nil for an unconditional edge
	branch bool     // the truth value of cond along this edge
}

// cfgBlock is one basic block: leaf nodes in execution order plus
// successor edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []cfgEdge
	preds []*cfgBlock
}

// cfg is the graph for one function scope.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock // synthetic; every return edges here
	blocks []*cfgBlock
	// fallBlock is the block whose end reaches the closing brace (the
	// implicit return), nil when every path ends in an explicit
	// terminator. Analyzers judge the fall-off-the-end exit by
	// replaying this block rather than the exit in-state, which also
	// mixes in the explicit-return paths.
	fallBlock *cfgBlock
}

// cfgCtx is one enclosing breakable construct on the builder's stack.
type cfgCtx struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // loops only
	fallTo     *cfgBlock // switch clauses only: the next clause's block
}

type cfgBuilder struct {
	g      *cfg
	cur    *cfgBlock // nil while the current path is terminated
	labels map[string]*cfgBlock
	ctx    []cfgCtx
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}, labels: make(map[string]*cfgBlock)}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.g.fallBlock = b.cur
		b.edge(b.cur, b.g.exit, nil, false)
	}
	for _, blk := range b.g.blocks {
		for _, e := range blk.succs {
			e.to.preds = append(e.to.preds, blk)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// ensure gives dead code after a terminator an unreachable block to
// accumulate into, so the builder never dereferences a nil current.
func (b *cfgBuilder) ensure() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) emit(n ast.Node) {
	b.ensure().nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond ast.Expr, branch bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, branch: branch})
}

// jump closes the current path with an unconditional edge to dst.
func (b *cfgBuilder) jump(dst *cfgBlock) {
	if b.cur != nil {
		b.edge(b.cur, dst, nil, false)
	}
	b.cur = nil
}

// labelBlock returns (creating on first reference) the block a label
// names, so forward gotos resolve before their LabeledStmt is built.
func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findCtx resolves a break/continue target: the innermost context, or
// the one carrying the label. needContinue restricts to loops.
func (b *cfgBuilder) findCtx(label string, needContinue bool) *cfgCtx {
	for i := len(b.ctx) - 1; i >= 0; i-- {
		c := &b.ctx[i]
		if needContinue && c.continueTo == nil {
			continue
		}
		if label == "" || c.label == label {
			return c
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		after := b.newBlock()
		b.edge(condBlk, thenBlk, s.Cond, true)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk, s.Cond, false)
			b.cur = thenBlk
			b.stmt(s.Body, "")
			b.jump(after)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.jump(after)
		} else {
			b.edge(condBlk, after, s.Cond, false)
			b.cur = thenBlk
			b.stmt(s.Body, "")
			b.jump(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		header := b.newBlock()
		bodyBlk := b.newBlock()
		after := b.newBlock()
		contTo := header
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		b.jump(header)
		b.cur = header
		if s.Cond != nil {
			b.emit(s.Cond)
			b.edge(b.cur, bodyBlk, s.Cond, true)
			b.edge(b.cur, after, s.Cond, false)
		} else {
			b.edge(b.cur, bodyBlk, nil, false)
		}
		b.ctx = append(b.ctx, cfgCtx{label: label, breakTo: after, continueTo: contTo})
		b.cur = bodyBlk
		b.stmt(s.Body, "")
		b.ctx = b.ctx[:len(b.ctx)-1]
		if s.Post != nil {
			b.jump(post)
			b.cur = post
			b.emit(s.Post)
			b.jump(header)
		} else {
			b.jump(header)
		}
		b.cur = after

	case *ast.RangeStmt:
		header := b.newBlock()
		bodyBlk := b.newBlock()
		after := b.newBlock()
		b.jump(header)
		// The RangeStmt itself is the header node: analyzers read X and
		// the Key/Value bindings from it (walkFlowNode skips its Body).
		header.nodes = append(header.nodes, s)
		b.edge(header, bodyBlk, nil, false)
		b.edge(header, after, nil, false)
		b.ctx = append(b.ctx, cfgCtx{label: label, breakTo: after, continueTo: header})
		b.cur = bodyBlk
		b.stmt(s.Body, "")
		b.ctx = b.ctx[:len(b.ctx)-1]
		b.jump(header)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.buildSwitch(s.Body.List, label, func(cc *ast.CaseClause, blk *cfgBlock) {
			for _, e := range cc.List {
				blk.nodes = append(blk.nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Assign)
		b.buildSwitch(s.Body.List, label, nil)

	case *ast.SelectStmt:
		header := b.ensure()
		after := b.newBlock()
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(header, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.emit(cc.Comm)
			}
			b.ctx = append(b.ctx, cfgCtx{label: label, breakTo: after})
			b.stmtList(cc.Body)
			b.ctx = b.ctx[:len(b.ctx)-1]
			b.jump(after)
		}
		if len(s.Body.List) == 0 {
			// `select {}` blocks forever; keep after reachable anyway so
			// the builder stays total.
			b.edge(header, after, nil, false)
		}
		b.cur = after

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if c := b.findCtx(name, false); c != nil {
				b.jump(c.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if c := b.findCtx(name, true); c != nil {
				b.jump(c.continueTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.jump(b.labelBlock(name))
		case token.FALLTHROUGH:
			if c := b.findCtx("", false); c != nil && c.fallTo != nil {
				b.jump(c.fallTo)
			} else {
				b.cur = nil
			}
		}

	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.exit)

	case *ast.ExprStmt:
		b.emit(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminalCall(call) {
			b.cur = nil
		}

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: plain nodes.
		b.emit(s)
	}
}

// buildSwitch shares the clause scaffolding of expression and type
// switches: every clause block hangs off the header, fallthrough edges
// chain clause to clause, and a missing default adds a header→after
// edge.
func (b *cfgBuilder) buildSwitch(clauses []ast.Stmt, label string, emitCase func(*ast.CaseClause, *cfgBlock)) {
	header := b.ensure()
	after := b.newBlock()
	blks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		blks[i] = b.newBlock()
	}
	hasDefault := false
	for i, cl := range clauses {
		var body []ast.Stmt
		var fallTo *cfgBlock
		if i+1 < len(blks) {
			fallTo = blks[i+1]
		}
		switch cc := cl.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			if emitCase != nil {
				emitCase(cc, blks[i])
			}
			body = cc.Body
		}
		b.edge(header, blks[i], nil, false)
		b.cur = blks[i]
		b.ctx = append(b.ctx, cfgCtx{label: label, breakTo: after, fallTo: fallTo})
		b.stmtList(body)
		b.ctx = b.ctx[:len(b.ctx)-1]
		b.jump(after)
	}
	if !hasDefault {
		b.edge(header, after, nil, false)
	}
	b.cur = after
}

// isTerminalCall reports whether call never returns: the panic builtin,
// os.Exit, runtime.Goexit, or log.Fatal*. Matching is syntactic (by
// qualifier name), which is exact for this repo's unaliased imports and
// merely conservative elsewhere.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		case "log":
			return strings.HasPrefix(fun.Sel.Name, "Fatal")
		}
	}
	return false
}

// walkFlowNode visits n and its children the way a CFG node owns them:
// it does not descend into a RangeStmt's body (a separate block) and
// does not descend into function literals (separate scopes) — the
// FuncLit node itself is still visited, so analyzers that care about
// captures can recurse explicitly. The callback returns false to prune.
func walkFlowNode(n ast.Node, fn func(ast.Node) bool) {
	var rangeBody *ast.BlockStmt
	if rs, ok := n.(*ast.RangeStmt); ok {
		rangeBody = rs.Body
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if m == rangeBody {
			return false
		}
		if !fn(m) {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return true
	})
}

// eachScope calls fn once per function scope of the package, in source
// order: every FuncDecl body under the function's name, then each
// function literal inside it as "<name> literal".
func eachScope(p *Package, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(fd.Name.Name+" literal", lit.Body)
				}
				return true
			})
		}
	}
}

// inspectScope walks scope without descending into nested function
// literals (each literal is its own scope).
func inspectScope(scope *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(scope, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != scope {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// String renders the graph for tests and debugging: one line per
// block with node kinds and successor edges.
func (g *cfg) String() string {
	var sb strings.Builder
	for _, blk := range g.blocks {
		fmt.Fprintf(&sb, "b%d", blk.index)
		if blk == g.entry {
			sb.WriteString("(entry)")
		}
		if blk == g.exit {
			sb.WriteString("(exit)")
		}
		sb.WriteString(":")
		for _, n := range blk.nodes {
			fmt.Fprintf(&sb, " %T", n)
		}
		if len(blk.succs) > 0 {
			sb.WriteString(" ->")
			for _, e := range blk.succs {
				if e.cond != nil {
					fmt.Fprintf(&sb, " b%d(%v)", e.to.index, e.branch)
				} else {
					fmt.Fprintf(&sb, " b%d", e.to.index)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// reachable returns the blocks reachable from entry, in index order.
func (g *cfg) reachable() []*cfgBlock {
	seen := make(map[*cfgBlock]bool)
	var visit func(*cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.succs {
			visit(e.to)
		}
	}
	visit(g.entry)
	var out []*cfgBlock
	for _, b := range g.blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	return out
}
