package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildTestCFG parses a function body and builds its graph. The body is
// parse-only: CFG construction is syntactic, so unresolved identifiers
// are fine.
func buildTestCFG(t *testing.T, body string) *cfg {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return buildCFG(fd.Body)
}

// callReachable reports whether a call to the named function sits in a
// block reachable from entry.
func callReachable(g *cfg, name string) bool {
	for _, blk := range g.reachable() {
		for _, n := range blk.nodes {
			found := false
			walkFlowNode(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}

// TestCFGLabeledBreak pins that `break outer` exits both loops: the
// statement after the inner loop is dead, the statement after the
// outer loop is live.
func TestCFGLabeledBreak(t *testing.T) {
	g := buildTestCFG(t, `
outer:
	for {
		for {
			break outer
		}
		dead()
	}
	live()
`)
	if callReachable(g, "dead") {
		t.Errorf("statement after always-breaking inner loop should be unreachable\n%s", g)
	}
	if !callReachable(g, "live") {
		t.Errorf("break outer must reach the code after the outer loop\n%s", g)
	}
}

// TestCFGLabeledContinue pins that `continue outer` targets the outer
// loop's header, keeping the outer post-loop code live.
func TestCFGLabeledContinue(t *testing.T) {
	g := buildTestCFG(t, `
outer:
	for i := 0; i < n; i++ {
		for {
			continue outer
		}
	}
	live()
`)
	if !callReachable(g, "live") {
		t.Errorf("continue outer must keep the outer loop's exit reachable\n%s", g)
	}
}

// TestCFGSelect pins that every select clause gets its own block and
// control rejoins after the statement.
func TestCFGSelect(t *testing.T) {
	g := buildTestCFG(t, `
	select {
	case v := <-ch:
		recv(v)
	case ch2 <- 1:
		sent()
	default:
		idle()
	}
	after()
`)
	for _, name := range []string{"recv", "sent", "idle", "after"} {
		if !callReachable(g, name) {
			t.Errorf("%s unreachable in select CFG\n%s", name, g)
		}
	}
}

// TestCFGSwitchFallthrough pins the fallthrough chain: case 1 runs
// case 2's body too, and every clause rejoins after the switch.
func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildTestCFG(t, `
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		other()
	}
	after()
`)
	for _, name := range []string{"one", "two", "other", "after"} {
		if !callReachable(g, name) {
			t.Errorf("%s unreachable in switch CFG\n%s", name, g)
		}
	}
}

// TestCFGGoto pins forward gotos: the jumped-over statement is dead,
// the label target is live.
func TestCFGGoto(t *testing.T) {
	g := buildTestCFG(t, `
	goto done
	dead()
done:
	live()
`)
	if callReachable(g, "dead") {
		t.Errorf("statement jumped over by goto should be unreachable\n%s", g)
	}
	if !callReachable(g, "live") {
		t.Errorf("goto target should be reachable\n%s", g)
	}
}

// TestCFGTerminators pins that panic and os.Exit end their paths: code
// after them is dead and the function has no fall-off exit when every
// path terminates.
func TestCFGTerminators(t *testing.T) {
	g := buildTestCFG(t, `
	if cond {
		panic("boom")
	}
	os.Exit(1)
	dead()
`)
	if callReachable(g, "dead") {
		t.Errorf("code after os.Exit should be unreachable\n%s", g)
	}
}

// TestCFGConditionEdges pins the path-sensitivity contract: an if
// condition labels its two out-edges with opposite branch values.
func TestCFGConditionEdges(t *testing.T) {
	g := buildTestCFG(t, `
	if err != nil {
		a()
	}
	b()
`)
	var seen []bool
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			if e.cond != nil {
				seen = append(seen, e.branch)
			}
		}
	}
	if len(seen) != 2 || seen[0] == seen[1] {
		t.Errorf("want one true and one false labelled edge, got %v\n%s", seen, g)
	}
}

// TestCFGFallBlock pins the fall-off-the-end bookkeeping used for
// closing-brace judgments.
func TestCFGFallBlock(t *testing.T) {
	falls := buildTestCFG(t, `
	work()
`)
	if falls.fallBlock == nil {
		t.Errorf("body without return must record a fall block\n%s", falls)
	}
	returns := buildTestCFG(t, `
	work()
	return
`)
	if returns.fallBlock != nil {
		t.Errorf("body ending in return must not record a fall block\n%s", returns)
	}
}

// flowForCalls builds a test analysis over call names: calling set(...)
// raises the key's fact to 1, calling clear(...) drops it.
func flowForCalls(join func(a, b fact) fact) *flow {
	return &flow{
		join: join,
		transfer: func(st flowState, n ast.Node) {
			walkFlowNode(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok {
					switch id.Name {
					case "set":
						st["k"] = 1
					case "clear":
						delete(st, "k")
					}
				}
				return true
			})
		},
	}
}

// stateAt replays the flow and returns the pre-state at the call to
// the named function.
func stateAt(g *cfg, fl *flow, name string) (flowState, bool) {
	in := fl.forward(g)
	var out flowState
	found := false
	fl.scanBlocks(g, in, func(st flowState, n ast.Node, _ *cfgBlock) {
		walkFlowNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					out = st.clone()
					found = true
				}
			}
			return true
		})
	})
	return out, found
}

// TestDataflowMayMerge pins merge-over-paths with join = max: a fact
// set on one branch survives the merge.
func TestDataflowMayMerge(t *testing.T) {
	g := buildTestCFG(t, `
	if cond {
		set()
	}
	probe()
`)
	max := func(a, b fact) fact {
		if a > b {
			return a
		}
		return b
	}
	st, ok := stateAt(g, flowForCalls(max), "probe")
	if !ok {
		t.Fatal("probe not found")
	}
	if st["k"] != 1 {
		t.Errorf("may-join must keep the one-branch fact, state = %v", st)
	}
}

// TestDataflowMustMerge pins the intersection join mutexhygiene uses: a
// fact set on only one branch does NOT survive the merge, while a fact
// set on both does.
func TestDataflowMustMerge(t *testing.T) {
	g := buildTestCFG(t, `
	if cond {
		set()
	}
	probe()
	set()
	if cond2 {
		other()
	}
	probe2()
`)
	must := func(a, b fact) fact {
		if a == b {
			return a
		}
		return 0
	}
	fl := flowForCalls(must)
	st, ok := stateAt(g, fl, "probe")
	if !ok {
		t.Fatal("probe not found")
	}
	if st["k"] != 0 {
		t.Errorf("must-join lost the one-branch drop, state = %v", st)
	}
	st2, ok := stateAt(g, fl, "probe2")
	if !ok {
		t.Fatal("probe2 not found")
	}
	if st2["k"] != 1 {
		t.Errorf("must-join must keep a both-paths fact, state = %v", st2)
	}
}

// TestDataflowLoopFixpoint pins convergence on a loop that clears the
// fact: after the loop the may-state still remembers the pre-loop set.
func TestDataflowLoopFixpoint(t *testing.T) {
	g := buildTestCFG(t, `
	set()
	for i := 0; i < n; i++ {
		clear()
	}
	probe()
`)
	max := func(a, b fact) fact {
		if a > b {
			return a
		}
		return b
	}
	st, ok := stateAt(g, flowForCalls(max), "probe")
	if !ok {
		t.Fatal("probe not found")
	}
	// Zero-iteration path keeps the fact; the loop path cleared it. May
	// analysis keeps the maximum.
	if st["k"] != 1 {
		t.Errorf("zero-iteration path lost across loop merge, state = %v", st)
	}
}

// TestCFGDeferAfterConditionalAcquire is the end-to-end shape from the
// issue: acquire, bail out on the error edge, defer the release. The
// resourceleak analyzer must stay silent, and moving the defer above
// the error check must not introduce edges that crash the builder.
func TestCFGDeferAfterConditionalAcquire(t *testing.T) {
	g := buildTestCFG(t, `
	f, err := open()
	if err != nil {
		return
	}
	defer f.Close()
	use(f)
`)
	// The defer node must sit on the non-error path only: exactly one
	// block contains it and that block is reachable.
	count := 0
	for _, blk := range g.reachable() {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				count++
			}
		}
	}
	if count != 1 {
		t.Errorf("defer statement should appear in exactly one reachable block, got %d\n%s", count, g)
	}
	if !strings.Contains(g.String(), "DeferStmt") {
		t.Errorf("graph dump should name the defer node\n%s", g)
	}
}
