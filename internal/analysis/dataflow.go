package analysis

import (
	"go/ast"
)

// dataflow.go is the lattice-based forward-dataflow framework the
// path-sensitive analyzers run on. An analysis instantiates flow with a
// per-entity join (the lattice's least upper bound — or greatest lower
// bound for must-analyses; the framework only requires monotonicity), a
// transfer function applied to each CFG node, and an optional
// edge-transfer that refines state along a labelled branch edge — the
// path-sensitivity hook: on the true edge of `err != nil` a resource
// tied to err is known invalid.
//
// States are small maps from tracked entities (a types.Object, or any
// other comparable key) to one-byte facts, with the zero fact as
// bottom: an absent key and a zero fact are the same thing, so joins
// never grow states with dead entries. Iteration is merge-over-paths to a
// fixpoint over a worklist; the first propagation into a block seeds
// its in-state rather than joining against bottom, which gives
// may-analyses (join = max) a bottom start and must-analyses (join =
// intersection) the optimistic start they need to converge on loops.

// flowKey identifies one tracked entity in a dataflow state.
type flowKey any

// fact is one lattice element; 0 is bottom ("untracked").
type fact uint8

// flowState maps tracked entities to facts; absent key = bottom.
type flowState map[flowKey]fact

func (s flowState) clone() flowState {
	out := make(flowState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// equal treats an absent key and a zero fact as the same state.
func (s flowState) equal(o flowState) bool {
	for k, v := range s {
		if v != 0 && o[k] != v {
			return false
		}
	}
	for k, v := range o {
		if v != 0 && s[k] != v {
			return false
		}
	}
	return true
}

// flow is one configured dataflow analysis.
type flow struct {
	// join merges the facts for one entity arriving along two paths.
	// It must be commutative and monotone over repeated application.
	join func(a, b fact) fact
	// transfer applies one CFG node's effect to the state in place.
	transfer func(st flowState, n ast.Node)
	// edge, when non-nil, refines the state along a conditional branch
	// edge: cond is the branch condition, branch its truth value on
	// this edge.
	edge func(st flowState, cond ast.Expr, branch bool)
}

// joinStates merges b into a copy of a, dropping entities that join to
// bottom.
func (fl *flow) joinStates(a, b flowState) flowState {
	out := a.clone()
	for k, bv := range b {
		j := fl.join(out[k], bv)
		if j == 0 {
			delete(out, k)
		} else {
			out[k] = j
		}
	}
	// Entities present in a but absent in b join against bottom.
	for k, av := range a {
		if _, ok := b[k]; ok {
			continue
		}
		j := fl.join(av, 0)
		if j == 0 {
			delete(out, k)
		} else {
			out[k] = j
		}
	}
	return out
}

// forward runs merge-over-paths iteration to a fixpoint and returns
// the in-state of every reached block. Unreachable blocks have no
// entry in the result. A step cap bounds pathological non-monotone
// transfer functions; hitting it abandons the remaining propagation
// (fewer findings, never a crash).
func (fl *flow) forward(g *cfg) map[*cfgBlock]flowState {
	in := map[*cfgBlock]flowState{g.entry: {}}
	work := []*cfgBlock{g.entry}
	queued := map[*cfgBlock]bool{g.entry: true}
	steps, limit := 0, 64*len(g.blocks)+256
	for len(work) > 0 {
		if steps++; steps > limit {
			break
		}
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		st := in[blk].clone()
		for _, n := range blk.nodes {
			fl.transfer(st, n)
		}
		for _, e := range blk.succs {
			es := st
			if e.cond != nil && fl.edge != nil {
				es = st.clone()
				fl.edge(es, e.cond, e.branch)
			}
			old, seen := in[e.to]
			if !seen {
				in[e.to] = es.clone()
			} else {
				merged := fl.joinStates(old, es)
				if merged.equal(old) {
					continue
				}
				in[e.to] = merged
			}
			if !queued[e.to] {
				work = append(work, e.to)
				queued[e.to] = true
			}
		}
	}
	return in
}

// scanBlocks replays the transfer function over every reached block in
// index order, calling visit with the state immediately BEFORE each
// node's transfer. This is how analyzers turn fixpoint states into
// positioned diagnostics: the pre-state at a return statement is the
// judgment state for that path.
func (fl *flow) scanBlocks(g *cfg, in map[*cfgBlock]flowState, visit func(st flowState, n ast.Node, blk *cfgBlock)) {
	for _, blk := range g.blocks {
		st, ok := in[blk]
		if !ok {
			continue
		}
		st = st.clone()
		for _, n := range blk.nodes {
			visit(st, n, blk)
			fl.transfer(st, n)
		}
	}
}

// exitState replays the fall-off-the-end block to its out-state — the
// state at the closing brace — or nil when every path returns or
// terminates explicitly.
func (fl *flow) exitState(g *cfg, in map[*cfgBlock]flowState) flowState {
	if g.fallBlock == nil {
		return nil
	}
	st, ok := in[g.fallBlock]
	if !ok {
		return nil
	}
	st = st.clone()
	for _, n := range g.fallBlock.nodes {
		fl.transfer(st, n)
	}
	return st
}
