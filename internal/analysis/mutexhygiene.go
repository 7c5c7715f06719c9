package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// mutexHygiene is the one lock rule: it computes, per function scope,
// the set of locks held at every call, and asks the policy's questions
// of that set. The serving layer is the motivating customer: textjoind
// guards the admission semaphore, the flight recorder and the SLO
// engine with short mutexes, and each promise below is what keeps a
// scrape or a request from queueing behind another request's join.
//
// The held set is a must-analysis over the scope's CFG: a lock key is
// held at a node only when it is held on EVERY path reaching it (join =
// intersection). A lock taken on one branch therefore never convicts
// code after the merge — a deliberate false negative, the price of
// never reporting a maybe. A deferred unlock keeps the lock held to
// scope exit, matching its runtime meaning, so a call after
// `defer mu.Unlock()` really is a call under the lock. Function
// literals are separate scopes: a closure body does not run under the
// lock state of its definition site. Lock keys name the lock's
// declaration site, not its dynamic identity: "pkg.Type.field" for a
// mutex field reached through any receiver, "pkg.var" for a
// package-level mutex, "pkg.func.name" for a local.
//
// Two questions are asked wherever the held set is non-empty:
//
// Held calls (Policy.HeldCalls): is this a call the policy forbids under
// a lock — into internal/iosim from the scrape-lock-free packages, into
// a facade Join* from the front ends under cmd/? Direct calls only.
//
// Leaf locks (Policy.LockOrder scopes): does this call acquire a lock —
// itself, or through a same-package callee's summary of the locks it
// transitively acquires (a fixpoint over the package's call graph)?
// Every lock in this module is a leaf: nothing is ever acquired while
// another lock is held, which is strictly stronger than an acyclic
// acquisition order (every cycle contains a nested acquire) and needs
// no order graph to check. The day two locks must nest, that acquire
// is the first edge of the graph this rule then owes. Acquiring a key
// already in the held set is reported as what it is: sync.Mutex
// self-deadlock. Summaries stop at the package boundary; a callee in
// another package that locks internally is not seen.
//
// Copying a mutex by value is go vet's finding (copylocks), which is why
// `make verify` runs vet ahead of this suite.
type mutexHygiene struct{ pol *Policy }

func (a *mutexHygiene) Name() string { return "mutexhygiene" }
func (a *mutexHygiene) Doc() string {
	return "no lock acquired while another is held (every lock is a leaf; same-package callees included), and no lock held across a direct call into iosim in the scrape-lock-free packages or a facade Join* call in the front ends"
}
func (a *mutexHygiene) NeedsTypes() bool { return true }

const mhHeld fact = 1

// mhScan carries one package's rule selection and findings.
type mhScan struct {
	a    *mutexHygiene
	p    *Package
	rows []*HeldCallRule
	leaf bool
	// acquires maps each function of the package to the locks it may
	// acquire, with one acquire site per lock as witness; nil outside
	// the leaf-lock scope.
	acquires map[*types.Func]map[string]token.Pos
	diags    []Diagnostic
}

func (a *mutexHygiene) Check(p *Package) []Diagnostic {
	if p.Info == nil {
		return nil
	}
	sc := &mhScan{a: a, p: p, leaf: matchScope(a.pol.LockOrder, p.Rel)}
	for i := range a.pol.HeldCalls {
		if r := &a.pol.HeldCalls[i]; matchScope(r.Scope, p.Rel) {
			sc.rows = append(sc.rows, r)
		}
	}
	if !sc.leaf && len(sc.rows) == 0 {
		return nil
	}
	if sc.leaf {
		sc.acquires = acquireSummaries(p)
	}
	eachScope(p, sc.checkScope)
	return sc.diags
}

// acquireSummaries computes, for every declared function, the locks its
// own body (literals run on their own schedule) or any same-package
// function it calls may acquire. Functions and callees are visited in
// declaration order so the witness site kept for a lock is stable.
func acquireSummaries(p *Package) map[*types.Func]map[string]token.Pos {
	sums := make(map[*types.Func]map[string]token.Pos)
	callees := make(map[*types.Func][]*types.Func)
	var order []*types.Func
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			order = append(order, fn)
			sums[fn] = make(map[string]token.Pos)
			inspectScope(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				switch key, kind := mutexCallKey(p, fd.Name.Name, call); kind {
				case mhAcquire:
					if _, seen := sums[fn][key]; !seen {
						sums[fn][key] = call.Pos()
					}
				case mhNone:
					if callee := calleeFunc(p, call); callee != nil {
						callees[fn] = append(callees[fn], callee)
					}
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			for _, callee := range callees[fn] {
				for key, pos := range sums[callee] {
					if _, seen := sums[fn][key]; !seen {
						sums[fn][key] = pos
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// checkScope runs the held-set dataflow over one scope and judges every
// call in it.
func (sc *mhScan) checkScope(fname string, body *ast.BlockStmt) {
	// Quick reject: a scope that never touches a mutex holds nothing.
	locks := false
	inspectScope(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && !locks {
			_, kind := mutexCallKey(sc.p, fname, call)
			locks = kind != mhNone
		}
	})
	if !locks {
		return
	}
	fl := &flow{
		// Must-analysis: held only if held on every path.
		join: func(x, y fact) fact {
			if x == y {
				return x
			}
			return 0
		},
		transfer: func(st flowState, n ast.Node) { sc.step(st, fname, n, false) },
	}
	g := buildCFG(body)
	fl.scanBlocks(g, fl.forward(g), func(st flowState, n ast.Node, _ *cfgBlock) {
		sc.step(st.clone(), fname, n, true)
	})
}

// step applies one CFG node's lock events to st in walk order and, when
// judging, puts the rule's questions to each call against the held set
// as it stands at that call — one node can both acquire and call.
func (sc *mhScan) step(st flowState, fname string, n ast.Node, judging bool) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return // a deferred unlock releases at exit: the held set is unchanged
	}
	walkFlowNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		judge := judging && len(st) > 0
		switch key, kind := mutexCallKey(sc.p, fname, call); kind {
		case mhAcquire:
			if judge && sc.leaf {
				sc.nestedAcquire(st, fname, call, key)
			}
			st[key] = mhHeld
		case mhRelease:
			delete(st, key)
		case mhNone:
			if judge {
				sc.heldCall(st, fname, call)
			}
		}
		return true
	})
}

const leafAdvice = "nested acquire — every lock in this module is a leaf; release first, or the first path that nests the pair the other way round deadlocks"

// nestedAcquire reports an acquire of key made while st's locks are held.
func (sc *mhScan) nestedAcquire(st flowState, fname string, call *ast.CallExpr, key string) {
	if st[key] == mhHeld {
		sc.report(call, "%s acquires %s while already holding it; a second Lock on a held sync mutex deadlocks", fname, key)
		return
	}
	sc.report(call, "%s acquires %s while holding %s: %s", fname, key, heldKeys(st), leafAdvice)
}

// heldCall reports an ordinary call made while st's locks are held if a
// HeldCalls row forbids it or its callee's summary acquires a lock.
func (sc *mhScan) heldCall(st flowState, fname string, call *ast.CallExpr) {
	fn := calleeFunc(sc.p, call)
	if fn == nil {
		return
	}
	for _, r := range sc.rows {
		if fn.Pkg().Path() == rulePkgPath(sc.p, r.Pkg) && strings.HasPrefix(fn.Name(), r.Prefix) {
			sc.report(call, "%s calls %s.%s while holding a mutex (%s); %s", fname, fn.Pkg().Name(), fn.Name(), heldKeys(st), r.Why)
		}
	}
	// One finding per call site: a re-acquired held lock if the callee
	// has one, else the first lock it acquires.
	acquired := sc.acquires[fn]
	if len(acquired) == 0 {
		return
	}
	keys := make([]string, 0, len(acquired))
	for k := range acquired {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if st[k] == mhHeld {
			sc.report(call, "%s calls %s while holding %s, and %s acquires %s again (%s); recursive acquisition deadlocks",
				fname, fn.Name(), heldKeys(st), fn.Name(), k, posString(sc.p, acquired[k]))
			return
		}
	}
	sc.report(call, "%s calls %s while holding %s, and %s acquires %s (%s): %s",
		fname, fn.Name(), heldKeys(st), fn.Name(), keys[0], posString(sc.p, acquired[keys[0]]), leafAdvice)
}

func (sc *mhScan) report(call *ast.CallExpr, format string, args ...any) {
	sc.diags = append(sc.diags, sc.p.diag(sc.a.Name(), call.Pos(), format, args...))
}

type mhKind int

const (
	mhNone mhKind = iota
	mhAcquire
	mhRelease
)

// mutexCallKey classifies a call as a mutex acquire/release and
// computes the lock's declaration-site key.
func mutexCallKey(p *Package, fname string, call *ast.CallExpr) (string, mhKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", mhNone
	}
	var kind mhKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = mhAcquire
	case "Unlock", "RUnlock":
		kind = mhRelease
	default:
		return "", mhNone
	}
	if !isMutexExpr(p, sel.X) {
		return "", mhNone
	}
	key := lockKey(p, fname, sel.X)
	if key == "" {
		return "", mhNone
	}
	return key, kind
}

// isMutexExpr reports whether e's type is (a pointer to) sync.Mutex,
// sync.RWMutex or the sync.Locker interface.
func isMutexExpr(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex" || obj.Name() == "Locker"
}

// lockKey names a mutex by its declaration site. RWMutex read and
// write locks share a key: a read lock nested under another lock still
// deadlocks once a writer queues up.
func lockKey(p *Package, fname string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// receiver.field (possibly nested): key on the owning type.
		t := p.Info.TypeOf(e.X)
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			pkg := ""
			if obj.Pkg() != nil {
				pkg = shortPkg(p, obj.Pkg().Path())
			}
			return pkg + "." + obj.Name() + "." + e.Sel.Name
		}
		// pkgname.mu: package-level mutex through a selector.
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return shortPkg(p, pn.Imported().Path()) + "." + e.Sel.Name
			}
		}
		return ""
	case *ast.Ident:
		obj := objOf(p, e)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		pkg := shortPkg(p, obj.Pkg().Path())
		if obj.Parent() == obj.Pkg().Scope() {
			return pkg + "." + obj.Name()
		}
		return pkg + "." + fname + "." + obj.Name()
	}
	return ""
}

// shortPkg trims the module prefix so keys and messages read as
// "internal/slo.Engine.mu" rather than a full import path.
func shortPkg(p *Package, path string) string {
	if path == p.Module {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, p.Module+"/"); ok {
		return rest
	}
	return path
}

// heldKeys renders the held set for messages: sorted, comma-separated.
func heldKeys(st flowState) string {
	var out []string
	for k := range st {
		if s, ok := k.(string); ok {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func posString(p *Package, pos token.Pos) string {
	pp := p.Position(pos)
	return fmt.Sprintf("%s:%d", pp.Filename, pp.Line)
}
