package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"weak"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
)

// allocationGate is the go-test form of alloc_kb_per_op's bound on every
// workload: a join works in its family's run state, left by the last
// finished join, so a warm join allocates the same number of objects
// whatever its size, at most the row's objects, and no more bytes than its
// result rows (a Result and λ matches each) and a small constant; into a
// recycled row set (RunInto) it allocates at most 16 KiB, rows included. Each row grows fourfold the side that drives its
// family's work: VVM's passes, at a fixed pass size on a corpus whose
// passes start dense, over the first outer documents and over the odd
// ones, whose id set is a bitmap; HVNL's outer documents, which triple its
// entry fetches under an evicting cache; the inner documents HHNL and LSH
// scan in every one of their batches; HHNL's batches. No growth allocates:
// every batch scores into the row set's one slab. One table, one check;
// each family's test below runs its rows of it. A row with every set holds
// on each of that many consecutive warm joins, measured one by one: HVNL's
// entry cache keeps what its evictions free up to its budget, so no warm
// join carves a new slab (the rest read the least of three, which lets a
// collection's own bookkeeping pass).
var allocationGate = []struct {
	name    string
	alg     Algorithm
	build   func(t *testing.T, n int) (Inputs, Options) // the join at size n, 1 or 4
	work    func(st *Stats) int64
	objects float64 // the most objects a warm join allocates, its new row set's included
	every   int     // consecutive warm joins that must each hold; 0: the least of three
}{
	{"VVM passes", VVM, func(t *testing.T, n int) (Inputs, Options) { return vvmPassesJoin(t, n, 1) }, passesOf, 12, 0},
	{"VVM scattered passes", VVM, func(t *testing.T, n int) (Inputs, Options) { return vvmPassesJoin(t, n, 2) }, passesOf, 12, 0},
	{"HVNL fetches", HVNL, func(t *testing.T, n int) (Inputs, Options) {
		return wsjHVNLEnv(t, n*int(wsjHVNLEnv(t, 0).c2.NumDocs())/4).inputs(), wsjHVNLOptions
	}, func(st *Stats) int64 { return st.EntryFetches }, 13, 30},
	{"HHNL inner", HHNL, func(t *testing.T, n int) (Inputs, Options) { return blockJoinOf(t, 60*n, 8) }, comparisonsOf, 15, 0},
	{"LSH inner", LSH, func(t *testing.T, n int) (Inputs, Options) { return blockJoinOf(t, 60*n, 8) }, comparisonsOf, 22, 0},
	{"HHNL passes", HHNL, func(t *testing.T, n int) (Inputs, Options) { return blockJoinOf(t, 60, 8+int64(4-n)*1000) }, passesOf, 15, 0},
}

func passesOf(st *Stats) int64      { return int64(st.Passes) }
func comparisonsOf(st *Stats) int64 { return st.Comparisons }

// TestVVMAllocationsDoNotGrowWithPasses: 2 and 8 passes of one size, over
// the first outer documents and over the odd ones.
func TestVVMAllocationsDoNotGrowWithPasses(t *testing.T) {
	checkAllocationGate(t, "VVM passes", "VVM scattered passes")
}

// TestHVNLAllocationsDoNotGrowWithFetches: four times the outer documents,
// over three times the entry fetches.
func TestHVNLAllocationsDoNotGrowWithFetches(t *testing.T) { checkAllocationGate(t, "HVNL fetches") }

// TestInlinePathAllocationsDoNotGrowWithInner: HHNL and LSH over four
// times the inner documents.
func TestInlinePathAllocationsDoNotGrowWithInner(t *testing.T) {
	checkAllocationGate(t, "HHNL inner", "LSH inner")
}

// TestBlockJoinAllocationsDoNotGrowWithPasses: HHNL in 1 and 5 passes
// allocates the same objects.
func TestBlockJoinAllocationsDoNotGrowWithPasses(t *testing.T) { checkAllocationGate(t, "HHNL passes") }

// checkAllocationGate runs the named rows of allocationGate.
func checkAllocationGate(t *testing.T, names ...string) {
	for _, tc := range allocationGate {
		if !slices.Contains(names, tc.name) {
			continue
		}
		names = slices.DeleteFunc(names, func(n string) bool { return n == tc.name })
		t.Run(tc.name, func(t *testing.T) {
			allocs, work := [2]float64{}, [2]int64{}
			for i, n := range []int{1, 4} {
				in, opts := tc.build(t, n)
				dec, err := Plan(tc.alg, in, opts)
				if err != nil {
					t.Fatal(err)
				}
				var st *Stats
				var rows Rows
				fresh := func() {
					if _, st, err = dec.Run(in, opts); err != nil {
						t.Fatal(err)
					}
				}
				into := func() {
					if _, st, err = dec.RunInto(in, opts, &rows); err != nil {
						t.Fatal(err)
					}
				}
				// The first join at a new size may grow the state and the
				// row set, and a collection's own bookkeeping may land in a
				// measurement: the least of three counts, and of three
				// joins' bytes, is the join's.
				fresh()
				into()
				least := func(join func()) float64 {
					return min(testing.AllocsPerRun(2, join), testing.AllocsPerRun(2, join), testing.AllocsPerRun(2, join))
				}
				var bytes, reusedBytes int64
				var reused float64
				if tc.every > 0 {
					allocs[i], bytes = mostOfEach(tc.every, fresh)
					reused, reusedBytes = mostOfEach(tc.every, into)
				} else {
					allocs[i], bytes = least(fresh), allocated(fresh)
					reused, reusedBytes = least(into), allocated(into)
				}
				work[i] = tc.work(st)
				n2 := in.Outer.NumDocs()
				charged := n2 * (rowBytes + int64(opts.Lambda)*matchBytes)
				t.Logf("size %d: %d outer documents, work %d, %.0f allocations, %d bytes (rows %d); into a recycled row set %.0f and %d",
					n, n2, work[i], allocs[i], bytes, charged, reused, reusedBytes)
				if bytes > charged+16<<10 || allocs[i] > tc.objects {
					t.Errorf("size %d: a warm join allocates %d bytes in %.0f objects, want at most its rows' %d + 16 KiB in %.0f",
						n, bytes, allocs[i], charged, tc.objects)
				}
				if reusedBytes > 16<<10 {
					t.Errorf("size %d: a warm join into a recycled row set allocates %d bytes, want at most 16 KiB", n, reusedBytes)
				}
			}
			if work[1] < 3*work[0] || allocs[1] != allocs[0] {
				t.Errorf("work %d and %d, %.0f and %.0f allocations per join: want three times the work in as many allocations",
					work[0], work[1], allocs[0], allocs[1])
			}
		})
	}
	if len(names) > 0 {
		t.Fatalf("no allocation gate rows named %q", names)
	}
}

// mostOfEach runs join n times to warm it, then n times more, measuring
// each of those calls alone, and returns the most objects and the most
// bytes one of them allocated. The collector is off throughout, so its own
// bookkeeping — a free list aged by the last collection — lands in no
// measured call.
func mostOfEach(n int, join func()) (objects float64, bytes int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range n {
		join()
	}
	for range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		join()
		runtime.ReadMemStats(&after)
		objects = max(objects, float64(after.Mallocs-before.Mallocs))
		bytes = max(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return objects, bytes
}

// allocated is the least of the bytes three calls of join allocate, each
// measured alone.
func allocated(join func()) int64 {
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		join()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// vvmPassesJoin is VVM over every stride-th document of a prefix of one
// outer collection, stride-1 on: 2n passes of one size under one budget, on
// a dense corpus whose passes δ̂ plans into the matrix.
func vvmPassesJoin(t *testing.T, n, stride int) (Inputs, Options) {
	r := rand.New(rand.NewSource(12))
	d := iosim.NewDisk(iosim.WithPageSize(256))
	c1 := buildColl(t, d, "c1", randomDocs(r, 150, 70, 16))
	c2 := buildColl(t, d, "c2", randomDocs(r, 800, 70, 16))
	in := Inputs{Outer: c2, Inner: c1, InnerInv: buildInv(t, d, c1, "c1"), OuterInv: buildInv(t, d, c2, "c2")}
	opts := Options{Lambda: 3, MemoryPages: 14}
	plan, err := Plan(VVM, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 2*n*int(float64(plan.mem.passBytes)/(4*delta*150))) // 2n passes' rows under M
	for i := range ids {
		ids[i] = uint32(stride*i + stride - 1)
	}
	if in.Outer, err = c2.Subset(ids); err != nil {
		t.Fatal(err)
	}
	return in, opts
}

// blockJoinOf is a block join of 200 outer documents against inner
// documents in a budget of pages pages, with the LSH sidecar LSH needs.
func blockJoinOf(t *testing.T, inner int, pages int64) (Inputs, Options) {
	r := rand.New(rand.NewSource(11))
	d := iosim.NewDisk(iosim.WithPageSize(256))
	c2 := buildColl(t, d, "c2", randomDocs(r, 200, 50, 10))
	e := &env{disk: d, c1: buildColl(t, d, "c1", randomDocs(r, inner, 50, 10)), c2: c2}
	return Inputs{Outer: c2, Inner: e.c1}, Options{Lambda: 3, MemoryPages: pages, LSH: buildDiffLSH(t, e, lshDiffConfig)}
}

// recycleJob is one join of the recycling tests: a conformance cell's
// family, weighting, outer kind and budget on one shape.
type recycleJob struct {
	name string
	w    *conformWorld
	alg  Algorithm
	in   Inputs
	opts Options
}

// recycleJobs lists, for every shape of the differential harness and the
// two store shapes, each family × weighting × outer kind at the default
// budget and at the smallest its plan admits.
func recycleJobs(t *testing.T) []recycleJob {
	var jobs []recycleJob
	for _, shape := range append(diffShapes(), storeShapes...) {
		w := worldOf(t, shape)
		// HVNL's first join loads the term index: a read of the inverted
		// file's, made once, not of the join's state.
		if _, err := w.e.inv1.LoadIndex(); err != nil {
			t.Fatal(err)
		}
		for _, fam := range conformFamilies {
			for _, wt := range allWeightings {
				for kind, outer := range w.outers {
					if fam.alg == VVM && kind == 2 {
						continue // a query batch has no inverted file
					}
					in, opts := w.e.inputs(), Options{Lambda: shape.lambda, Weighting: wt, LSH: w.lsh}
					if in.Outer = outer; fam.pf {
						opts.Prefilter = w.pfs[w.code]
					}
					for _, b := range []int64{0, smallestBudget(t, fam.alg, in, opts)} {
						opts.MemoryPages = b
						name := fmt.Sprintf("%s/%s/%v/%s/B=%d", shape.name, fam.name, wt, conformKinds[kind], b)
						jobs = append(jobs, recycleJob{name, w, fam.alg, in, opts})
					}
				}
			}
		}
	}
	return jobs
}

// run joins the job from parked heads, so its page reads do not depend on
// the join before it.
func (j recycleJob) run(t *testing.T) ([]Result, Stats) {
	t.Helper()
	j.w.e.disk.ParkHeads()
	got, st, err := Join(j.alg, j.in, j.opts)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	return got, *st
}

// copyRows deep-copies a result set.
func copyRows(rows []Result) []Result {
	out := make([]Result, len(rows))
	for i, r := range rows {
		if out[i] = r; r.Matches != nil {
			out[i].Matches = append([]Match{}, r.Matches...)
		}
	}
	return out
}

// emptyRunStates empties every family's free list, so that the next join
// of each family builds its run state: two collections' worth of aging.
func emptyRunStates() {
	for range 2 {
		vvmStates.Age()
		hvnlStates.Age()
		blockStates.Age()
	}
}

// TestRecycledStatesLeakNothing runs the conformance cells in one process
// in a seeded interleaved order, across shapes, families, weightings,
// outer kinds and budgets, so each join takes the run state some other
// cell left. Each join's rows and full Stats must equal, byte for byte,
// those of the same join run on a cold state; the join must leave the rows
// of the join before it as they were; and the caller then overwrites
// every match of those rows before the next join.
func TestRecycledStatesLeakNothing(t *testing.T) {
	jobs := recycleJobs(t)
	rows, stats := make([][]Result, len(jobs)), make([]Stats, len(jobs))
	for i, j := range jobs {
		emptyRunStates()
		got, st := j.run(t)
		rows[i], stats[i] = copyRows(got), st
	}
	var prev, kept []Result
	order := rand.New(rand.NewSource(51)).Perm(len(jobs))
	for _, i := range append(order, order[:len(order)/2]...) {
		got, st := jobs[i].run(t)
		if !reflect.DeepEqual(rows[i], got) || !reflect.DeepEqual(stats[i], st) {
			t.Fatalf("%s: a recycled run's rows or Stats differ from the cold run's; Stats\n%+v\nwant\n%+v", jobs[i].name, st, stats[i])
		}
		if !reflect.DeepEqual(kept, prev) {
			t.Fatalf("%s changed the rows of the join before it", jobs[i].name)
		}
		for _, r := range prev {
			for k := range r.Matches {
				r.Matches[k] = Match{Doc: math.MaxUint32, Sim: math.Inf(1)}
			}
		}
		prev, kept = got, copyRows(got)
	}
}

// TestRecycledRowSetShowsNoEarlierRows runs every recycling job into one
// row set, the largest first (outer documents × λ), so each join runs in a
// set an earlier, larger join filled: more rows, longer match lists. Each
// join's rows and Stats must equal, byte for byte, those of a fresh Run of
// it — rows without matches included, nil or empty as Run gives them —
// and the jobs must hold such rows.
func TestRecycledRowSetShowsNoEarlierRows(t *testing.T) {
	jobs := recycleJobs(t)
	size := func(j recycleJob) int64 { return j.in.Outer.NumDocs() * int64(j.opts.withDefaults(j.in).Lambda) }
	slices.SortStableFunc(jobs, func(a, b recycleJob) int { return cmp.Compare(size(b), size(a)) })
	var rows Rows
	empty := 0
	for _, j := range jobs {
		want, wantSt := j.run(t)
		dec, err := Plan(j.alg, j.in, j.opts)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		j.w.e.disk.ParkHeads()
		got, st, err := dec.RunInto(j.in, j.opts, &rows)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantSt, *st) {
			t.Fatalf("%s: the rows or Stats of a join into a recycled row set differ from a fresh Run's", j.name)
		}
		for _, r := range got {
			if len(r.Matches) == 0 {
				empty++
			}
		}
	}
	if empty == 0 {
		t.Fatal("no job returned a row without matches")
	}
}

// TestRowSetPinsNoEarlierSlab: a join into a row set that held more rows
// at a smaller λ outgrows the set's slab, so the set takes a new one, and
// the set's rows past the join's own, which pointed into the old slab, are
// cleared: the old slab is collected.
func TestRowSetPinsNoEarlierSlab(t *testing.T) {
	e := buildEnv(t, 5, 30, 40, 40, 10, 256)
	sub, err := e.c2.Subset([]uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	var rows Rows
	join := func(in Inputs, lambda int) {
		opts := Options{Lambda: lambda}
		dec, err := Plan(HHNL, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.RunInto(in, opts, &rows); err != nil {
			t.Fatal(err)
		}
	}
	in := e.inputs()
	join(in, 1)
	old := weak.Make(&rows.slab[0])
	in.Outer = sub
	join(in, 20)
	runtime.GC()
	if old.Value() != nil {
		t.Error("the slab of the larger join before outlives a join that outgrew it")
	}
	runtime.KeepAlive(&rows)
}

// TestFinishedJoinPinsNothing holds that a run state put back holds no
// reference to the join it served: once a join of each family has run on
// a fresh disk through a view, with a trace and a cosine scorer, the
// disk, the view, the scorer, the trace and the slab of the join's row set
// are collected.
func TestFinishedJoinPinsNothing(t *testing.T) {
	for _, alg := range []Algorithm{HHNL, HVNL, VVM, LSH} {
		pinned := joinWeakly(t, alg)
		runtime.GC()
		for name, p := range pinned {
			if p() {
				t.Errorf("%v: the %s outlives the join", alg, name)
			}
		}
	}
}

// joinWeakly runs one alg join and reports, by name, whether each of what
// the join must not pin is still reachable.
func joinWeakly(t *testing.T, alg Algorithm) map[string]func() bool {
	e := buildEnv(t, 5, 30, 40, 40, 10, 256)
	trace := reqtrace.NewTracer(1, time.Now).StartTrace("join")
	opts := Options{Lambda: 3, MemoryPages: 8, Weighting: document.Cosine, Trace: trace, LSH: buildDiffLSH(t, e, lshDiffConfig)}
	dec, err := Plan(alg, e.inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	v := e.disk.View()
	defer v.Close()
	run, err := e.inputs().WithView(v)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := run.scorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := new(Rows)
	if _, _, err := runs[alg](run, opts.withDefaults(run), dec.mem, scorer, rows); err != nil {
		t.Fatal(err)
	}
	trace.End()
	disk, view, sc, tr, slab := weak.Make(e.disk), weak.Make(v), weak.Make(scorer), weak.Make(trace), weak.Make(&rows.slab[0])
	return map[string]func() bool{"disk": func() bool { return disk.Value() != nil }, "view": func() bool { return view.Value() != nil },
		"scorer": func() bool { return sc.Value() != nil }, "trace": func() bool { return tr.Value() != nil },
		"row set's slab": func() bool { return slab.Value() != nil }}
}
