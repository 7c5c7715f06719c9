package core

import (
	"fmt"
	"testing"
	_ "unsafe" // for go:linkname

	"textjoin/internal/accum"
)

// setColumns is accum's test hook: it turns the vector column kernel, and
// with it every column a join would hold, on or off, and returns what it
// was. Off, a join runs as on a CPU without the kernel.
//
//go:linkname setColumns textjoin/internal/accum.setVector
func setColumns(on bool) bool

// TestColumnsChangeNothing runs every family on the conformance matrix's
// shapes — each weighting, C2 whole and a selection, one pass and at the
// smallest budget the plan admits — with postings held as columns and
// with every posting added as cells, the path a CPU without the vector
// kernel takes, and requires the same results bit for bit and the same
// Stats, page reads and cache events included. It also requires that the
// column path ran: on some shape, some posting a family adds is Columnar.
func TestColumnsChangeNothing(t *testing.T) {
	was := setColumns(true)
	defer setColumns(was)
	kernel := setColumns(true) // what the first call set: the CPU's answer
	if !kernel {
		t.Log("this CPU has no vector column kernel: both runs add cells")
	}
	dense := map[string]bool{}
	for _, shape := range conformShapes() {
		w := worldOf(t, shape)
		for _, fam := range conformFamilies {
			if fam.pf && !fam.prunes() {
				continue // HVNL ignores the prefilter it is offered
			}
			for kind := range 2 {
				for regime := range conformRegimes {
					for _, wt := range allWeightings {
						in := w.e.inputs()
						in.Outer = w.outers[kind]
						opts := Options{Lambda: shape.lambda, Weighting: wt, LSH: w.lsh}
						if fam.pf {
							opts.Prefilter = w.pfs[w.code]
						}
						if regime == 1 {
							opts.MemoryPages = smallestBudget(t, fam.alg, in, opts)
						}
						name := fmt.Sprintf("%s/%s/%v/%s/%s", shape.name, fam.name, wt, conformKinds[kind], conformRegimes[regime])
						if err := sameBothWays(w.e, fam.alg, in, opts); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
			if columnar(w, fam.alg) {
				dense[fam.name] = true
			}
		}
	}
	for _, fam := range conformFamilies {
		if !fam.pf || fam.prunes() {
			if !dense[fam.name] && kernel {
				t.Errorf("%s holds no posting of any shape as a column: the column path did not run", fam.name)
			}
		}
	}
}

// sameBothWays joins alg on in with columns on and off, each from parked
// heads and a loaded index, and returns the first difference in the
// Stats or the results.
func sameBothWays(e *env, alg Algorithm, in Inputs, opts Options) error {
	if _, err := e.inv1.LoadIndex(); err != nil {
		return err
	}
	var rows [2][]Result
	var sts [2]*Stats
	for i, on := range []bool{true, false} {
		setColumns(on)
		e.disk.ParkHeads()
		var err error
		rows[i], sts[i], err = Join(alg, in, opts)
		setColumns(true)
		if err != nil {
			return err
		}
	}
	if *sts[0] != *sts[1] {
		return fmt.Errorf("Stats with columns:\n%+v\nwithout:\n%+v", *sts[0], *sts[1])
	}
	return exactSameResults(rows[0], rows[1])
}

// columnar reports whether a one-pass join of alg over C2 whole adds some
// posting as a column: an inner entry Columnar over C1 that some outer
// document's term reaches (HVNL, VVM), or a term Columnar over the whole
// of C2 as one batch that some inner document holds (the block joins).
func columnar(w *conformWorld, alg Algorithm) bool {
	e := w.e
	over, by, n := w.outer, e.c1, int(e.c1.NumDocs())
	if alg != HVNL && alg != VVM {
		over, by, n = w.inner, e.c2, int(e.c2.NumDocs())
	}
	for _, d := range over {
		for _, c := range d.Cells {
			if df := by.DF(c.Term); df > 0 && accum.Columnar(int(df), n) {
				return true
			}
		}
	}
	return false
}

// TestWarmJoinsAllocateNoColumn: once a family's run state has held its
// columns, a warm join allocates no more with columns than without them,
// on the one shape whose joins all hold some, WSJ/512 — one pass, and
// HVNL also at the smallest budget, where its cache evicts columns.
func TestWarmJoinsAllocateNoColumn(t *testing.T) {
	was := setColumns(true)
	defer setColumns(was)
	w := worldOf(t, wsjShape)
	for _, fam := range conformFamilies {
		if fam.pf && !fam.prunes() {
			continue
		}
		budgets := []int64{0}
		if fam.alg == HVNL {
			budgets = append(budgets, smallestBudget(t, HVNL, w.e.inputs(), Options{Lambda: wsjShape.lambda}))
		}
		for _, b := range budgets {
			opts := Options{Lambda: wsjShape.lambda, MemoryPages: b, LSH: w.lsh}
			if fam.pf {
				opts.Prefilter = w.pfs[w.code]
			}
			in := w.e.inputs()
			dec, err := Plan(fam.alg, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			var rows Rows
			join := func() {
				if _, _, err := dec.RunInto(in, opts, &rows); err != nil {
					t.Fatal(err)
				}
			}
			// Each mode is warmed once before either is measured, so that
			// no first use of a state or a free list lands in a measurement.
			var bytes [2]int64
			for range 2 {
				for i, on := range []bool{true, false} {
					setColumns(on)
					_, bytes[i] = mostOfEach(5, join)
				}
			}
			setColumns(true)
			t.Logf("%s B=%d: a warm join allocates %d bytes with columns, %d without", fam.name, b, bytes[0], bytes[1])
			if !columnar(w, fam.alg) {
				t.Errorf("%s holds no posting of %s as a column", fam.name, wsjShape.name)
			}
			if bytes[0] > bytes[1] {
				t.Errorf("%s B=%d: a warm join allocates %d bytes with columns, %d without", fam.name, b, bytes[0], bytes[1])
			}
		}
	}
}
