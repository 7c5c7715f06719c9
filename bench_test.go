// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablation benches for the design choices
// called out in DESIGN.md.
//
// The analytic benches (Table1, Group1–Group5, Integrated, Findings)
// evaluate the paper's cost formulas at full TREC scale — exactly the
// computation the paper's simulation performed — and report the
// regenerated rows through -benchmem counters. The Measured benches run
// the three real algorithms on scaled synthetic corpora and report
// measured page I/O, validating the formulas' shape.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package textjoin

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"textjoin/internal/accum"
	"textjoin/internal/cluster"
	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/entrycache"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/simulate"
	"textjoin/internal/telemetry"
)

// BenchmarkTable1 regenerates the collection statistics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := simulate.Table1(); len(t.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkGroup1 regenerates the six Group 1 simulations (self joins,
// varying B and α).
func BenchmarkGroup1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := simulate.Group1(); len(ts) != 6 {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkGroup2 regenerates the six Group 2 simulations (cross joins).
func BenchmarkGroup2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := simulate.Group2(); len(ts) != 6 {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkGroup3 regenerates the three Group 3 simulations (selection
// over an originally large C2).
func BenchmarkGroup3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := simulate.Group3(); len(ts) != 3 {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkGroup4 regenerates the three Group 4 simulations (originally
// small C2).
func BenchmarkGroup4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := simulate.Group4(); len(ts) != 3 {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkGroup5 regenerates the three Group 5 simulations (fewer but
// larger documents).
func BenchmarkGroup5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := simulate.Group5(); len(ts) != 3 {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkIntegrated scores the integrated algorithm's choice across the
// whole simulation grid.
func BenchmarkIntegrated(b *testing.B) {
	sys := costmodel.DefaultSystem()
	q := costmodel.DefaultQuery()
	var inputs []costmodel.Input
	for _, p1 := range corpus.Profiles() {
		for _, p2 := range corpus.Profiles() {
			inputs = append(inputs, costmodel.Input{C1: p1.Stats(), C2: p2.Stats()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			alg, _ := costmodel.Choose(in, sys, q)
			_ = alg
		}
	}
}

// BenchmarkFindings re-derives the paper's five summary findings.
func BenchmarkFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := simulate.Findings()
		for _, f := range fs {
			if !f.Holds {
				b.Fatalf("finding %d does not hold", f.ID)
			}
		}
	}
}

// measuredEnv caches the scaled corpora shared by the Measured benches.
type measuredEnv struct {
	d  *iosim.Disk
	in core.Inputs
}

func newMeasuredEnv(b *testing.B, scale int64) *measuredEnv {
	b.Helper()
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(5))
	c1, err := corpus.GenerateOn(d, "c1", corpus.WSJ.Scaled(scale), 1)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := corpus.GenerateOn(d, "c2", corpus.WSJ.Scaled(scale), 2)
	if err != nil {
		b.Fatal(err)
	}
	mkInv := func(c *Collection, prefix string) *invfile.InvertedFile {
		ef, _ := d.Create(prefix + ".inv")
		tf, _ := d.Create(prefix + ".bt")
		inv, err := invfile.Build(c, ef, tf)
		if err != nil {
			b.Fatal(err)
		}
		return inv
	}
	inv1 := mkInv(c1, "c1")
	inv2 := mkInv(c2, "c2")
	d.ResetStats()
	return &measuredEnv{d: d, in: core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}}
}

func benchMeasured(b *testing.B, alg core.Algorithm, opts core.Options) {
	env := newMeasuredEnv(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	var lastCost float64
	for i := 0; i < b.N; i++ {
		_, st, err := core.Join(alg, env.in, opts)
		if err != nil {
			b.Fatal(err)
		}
		lastCost = st.Cost
	}
	b.ReportMetric(lastCost, "io-cost")
}

// BenchmarkMeasuredHHNL runs the real HHNL on a 1/1024-scale WSJ pair.
func BenchmarkMeasuredHHNL(b *testing.B) {
	benchMeasured(b, core.HHNL, core.Options{Lambda: 20, MemoryPages: 100})
}

// BenchmarkMeasuredHVNL runs the real HVNL on a 1/1024-scale WSJ pair.
func BenchmarkMeasuredHVNL(b *testing.B) {
	benchMeasured(b, core.HVNL, core.Options{Lambda: 20, MemoryPages: 100})
}

// BenchmarkMeasuredVVM runs the real VVM on a 1/1024-scale WSJ pair.
func BenchmarkMeasuredVVM(b *testing.B) {
	benchMeasured(b, core.VVM, core.Options{Lambda: 20, MemoryPages: 100})
}

// BenchmarkTelemetryOverhead measures what the instrumentation costs
// each measured join: disabled (nil collector, nil trace — the default)
// vs enabled the way a served request is — a collector on the disk and
// the join, the join under a trace root, and the finished trace folded
// into the phase histograms. That the disabled primitives allocate
// nothing is pinned by tier-1 tests (telemetry, reqtrace, core), not here.
func BenchmarkTelemetryOverhead(b *testing.B) {
	algs := []struct {
		name string
		alg  core.Algorithm
	}{{"HHNL", core.HHNL}, {"HVNL", core.HVNL}, {"VVM", core.VVM}}
	opts := core.Options{Lambda: 20, MemoryPages: 100}
	for _, a := range algs {
		env := newMeasuredEnv(b, 1024)
		b.Run(a.name+"/disabled", func(b *testing.B) {
			env.d.SetCollector(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Join(a.alg, env.in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(a.name+"/enabled", func(b *testing.B) {
			tel := telemetry.New()
			env.d.SetCollector(tel)
			tracer := reqtrace.NewTracer(1, time.Now)
			o := opts
			o.Telemetry = tel
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := tracer.StartTrace("join")
				o.Trace = root
				if _, _, err := core.Join(a.alg, env.in, o); err != nil {
					b.Fatal(err)
				}
				reqtrace.ObservePhases(tel, root.Data())
			}
			b.StopTimer()
			env.d.SetCollector(nil)
		})
	}
}

// BenchmarkMeasuredIntegrated runs choice + execution.
func BenchmarkMeasuredIntegrated(b *testing.B) {
	env := newMeasuredEnv(b, 1024)
	opts := core.Options{Lambda: 20, MemoryPages: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.JoinIntegrated(env.in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanDecode measures the scan/decode pipeline in isolation: one
// op is a full sweep of the 1/256-scale WSJ collection (or its inverted
// file). The reuse paths decode every record straight out of the page
// window into one arena and must stay allocation-free in the steady
// state; the clone paths bound what retaining callers pay.
func BenchmarkScanDecode(b *testing.B) {
	env := newMeasuredEnv(b, 256)
	c1 := env.in.Inner
	inv1 := env.in.InnerInv
	b.Run("collection-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := c1.Scan()
			for {
				if _, err := sc.NextReuse(); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("collection-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := c1.Scan()
			for {
				if _, err := sc.Next(); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("invfile-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := inv1.Scan()
			for {
				if _, err := sc.NextReuse(); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("invfile-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := inv1.Scan()
			for {
				if _, err := sc.Next(); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationHVNLPolicy compares the paper's min-outer-df entry
// replacement against LRU under tight memory (DESIGN.md decision 2). The
// reported io-cost and entry-fetches metrics are the comparison of
// interest: a 1/256-scale corpus with an 11-page budget forces heavy
// eviction.
func BenchmarkAblationHVNLPolicy(b *testing.B) {
	for _, policy := range []entrycache.Policy{entrycache.MinOuterDF, entrycache.LRU} {
		b.Run(policy.String(), func(b *testing.B) {
			env := newMeasuredEnv(b, 256)
			opts := core.Options{Lambda: 20, MemoryPages: 11, CachePolicy: policy}
			b.ResetTimer()
			var cost float64
			var fetches int64
			for i := 0; i < b.N; i++ {
				_, st, err := core.Join(core.HVNL, env.in, opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = st.Cost
				fetches = st.EntryFetches
			}
			b.ReportMetric(cost, "io-cost")
			b.ReportMetric(float64(fetches), "entry-fetches")
		})
	}
}

// BenchmarkAblationSharedHead contrasts the paper's dedicated-drive
// assumption with a single contended device (DESIGN.md decision 1).
// HVNL interleaves sequential outer-document reads with random
// inverted-file fetches, so sharing one head turns the whole outer scan
// random — the hvs → hvr degradation the paper's random formulas model.
func BenchmarkAblationSharedHead(b *testing.B) {
	run := func(b *testing.B, shared bool) float64 {
		b.Helper()
		diskOpts := []iosim.Option{iosim.WithPageSize(512), iosim.WithAlpha(5)}
		if shared {
			diskOpts = append(diskOpts, iosim.WithSharedHead())
		}
		d := iosim.NewDisk(diskOpts...)
		r := rand.New(rand.NewSource(3))
		mkdocs := func(n int) []*Document {
			docs := make([]*Document, n)
			for i := range docs {
				counts := make(map[uint32]int)
				for j := 0; j < 20; j++ {
					counts[uint32(r.Intn(500))]++
				}
				docs[i] = NewDocument(uint32(i), counts)
			}
			return docs
		}
		build := func(name string, docs []*Document) *Collection {
			f, err := d.Create(name)
			if err != nil {
				b.Fatal(err)
			}
			bld, err := collection.NewBuilder(name, f)
			if err != nil {
				b.Fatal(err)
			}
			for _, doc := range docs {
				if err := bld.Add(doc); err != nil {
					b.Fatal(err)
				}
			}
			c, err := bld.Finish()
			if err != nil {
				b.Fatal(err)
			}
			return c
		}
		c1 := build("c1", mkdocs(60))
		c2 := build("c2", mkdocs(60))
		ef, _ := d.Create("c1.inv")
		tf, _ := d.Create("c1.bt")
		inv1, err := invfile.Build(c1, ef, tf)
		if err != nil {
			b.Fatal(err)
		}
		d.ResetStats()
		in := core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1}
		var cost float64
		for i := 0; i < b.N; i++ {
			_, st, err := core.Join(core.HVNL, in, core.Options{Lambda: 5, MemoryPages: 25})
			if err != nil {
				b.Fatal(err)
			}
			cost = st.Cost
		}
		return cost
	}
	b.Run("dedicated-heads", func(b *testing.B) {
		b.ReportMetric(run(b, false), "io-cost")
	})
	b.Run("shared-head", func(b *testing.B) {
		b.ReportMetric(run(b, true), "io-cost")
	})
}

// BenchmarkAblationClusteredOrder measures the paper's clustered-storage
// remark: HVNL over a planted-topic outer collection, stored scattered vs
// greedily cluster-ordered (the tractable stand-in for the NP-hard optimal
// order), under an LRU cache sized to roughly one topic.
func BenchmarkAblationClusteredOrder(b *testing.B) {
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	p := corpus.ClusteredProfile{
		Profile: corpus.Profile{Name: "planted", NumDocs: 240, TermsPerDoc: 20, DistinctTerms: 3000},
		Topics:  8,
		Scatter: true,
	}
	f, _ := d.Create("scattered")
	scattered, err := corpus.GenerateClustered(p, 7, f)
	if err != nil {
		b.Fatal(err)
	}
	innerProfile := p
	innerProfile.Name = "inner"
	innerProfile.NumDocs = 1000
	fi, _ := d.Create("inner")
	inner, err := corpus.GenerateClustered(innerProfile, 8, fi)
	if err != nil {
		b.Fatal(err)
	}
	ef, _ := d.Create("inner.inv")
	tf, _ := d.Create("inner.bt")
	inv, err := invfile.Build(inner, ef, tf)
	if err != nil {
		b.Fatal(err)
	}
	cf, _ := d.Create("clustered")
	clustered, _, err := cluster.Clustered("clustered", cf, scattered)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Lambda: 5, MemoryPages: 12, CachePolicy: entrycache.LRU}
	for _, tc := range []struct {
		name  string
		outer *collection.Collection
	}{{"scattered", scattered}, {"cluster-ordered", clustered}} {
		b.Run(tc.name, func(b *testing.B) {
			var fetches int64
			var cost float64
			for i := 0; i < b.N; i++ {
				_, st, err := core.Join(core.HVNL, core.Inputs{Outer: tc.outer, Inner: inner, InnerInv: inv}, opts)
				if err != nil {
					b.Fatal(err)
				}
				fetches = st.EntryFetches
				cost = st.Cost
			}
			b.ReportMetric(float64(fetches), "entry-fetches")
			b.ReportMetric(cost, "io-cost")
		})
	}
}

// BenchmarkParallelJoins runs each exact family inline (w1) and fanned
// out (w2, w4) on a memory-resident corpus (the paper's further-studies
// item 3). Fixed worker counts expose the chunking and owner-sharded
// routing cost even when GOMAXPROCS is low.
func BenchmarkParallelJoins(b *testing.B) {
	env := newMeasuredEnv(b, 256)
	for _, alg := range []core.Algorithm{core.HHNL, core.HVNL, core.VVM} {
		for _, workers := range []int{1, 2, 4} {
			opts := core.Options{Lambda: 10, MemoryPages: 500, Workers: workers}
			b.Run(fmt.Sprintf("%v/w%d", alg, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Join(alg, env.in, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// accumWorkload is a fixed random stream of (row, inner, v) adds shaped
// like one VVM pass: rows×cols pair space, nnz distinct non-zero pairs,
// several adds per pair (one per shared term).
type accumWorkload struct {
	rows, cols int
	rowIdx     []int
	innerIdx   []uint32
	val        []float64
}

func newAccumWorkload(rows, cols, nnz, addsPerPair int) *accumWorkload {
	r := rand.New(rand.NewSource(11))
	w := &accumWorkload{rows: rows, cols: cols}
	for p := 0; p < nnz; p++ {
		row, inner := r.Intn(rows), uint32(r.Intn(cols))
		for a := 0; a < addsPerPair; a++ {
			w.rowIdx = append(w.rowIdx, row)
			w.innerIdx = append(w.innerIdx, inner)
			w.val = append(w.val, float64(r.Intn(40)+1))
		}
	}
	return w
}

// BenchmarkAccumVVM compares the per-pass similarity stores on the same
// add stream: the old map[uint64]float64, the open-addressing table, and
// the dense matrix. One op is a full pass: accumulate + drain.
func BenchmarkAccumVVM(b *testing.B) {
	w := newAccumWorkload(512, 1024, 40000, 4)
	drain := func(a accum.Accumulator) float64 {
		var sum float64
		a.ForEach(func(row int, inner uint32, v float64) { sum += v })
		return sum
	}
	b.Run("map", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			m := make(map[uint64]float64)
			for j, row := range w.rowIdx {
				m[uint64(row)<<32|uint64(w.innerIdx[j])] += w.val[j]
			}
			for _, v := range m {
				sum += v
			}
		}
		_ = sum
	})
	b.Run("table", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			t := accum.NewTable(0)
			for j, row := range w.rowIdx {
				t.Add(row, w.innerIdx[j], w.val[j])
			}
			sum += drain(t)
		}
		_ = sum
	})
	b.Run("dense", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			d := accum.NewDense(w.rows, w.cols)
			for j, row := range w.rowIdx {
				d.Add(row, w.innerIdx[j], w.val[j])
			}
			sum += drain(d)
		}
		_ = sum
	})
}

// BenchmarkAccumHVNL compares HVNL's per-outer-document store — the old
// map[uint32]float64 versus the flat touched-list accumulator — on a
// stream of documents reusing one accumulator (as HVNL does).
func BenchmarkAccumHVNL(b *testing.B) {
	const n1, perDoc = 4096, 600
	r := rand.New(rand.NewSource(12))
	ids := make([]uint32, perDoc)
	vals := make([]float64, perDoc)
	for i := range ids {
		ids[i] = uint32(r.Intn(n1))
		vals[i] = float64(r.Intn(40) + 1)
	}
	b.Run("map", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			m := make(map[uint32]float64)
			for j, id := range ids {
				m[id] += vals[j]
			}
			for _, v := range m {
				sum += v
			}
		}
		_ = sum
	})
	b.Run("flat", func(b *testing.B) {
		f := accum.NewFlat(n1)
		var sum float64
		for i := 0; i < b.N; i++ {
			for j, id := range ids {
				f.Add(id, vals[j])
			}
			f.ForEach(func(id uint32, v float64) { sum += v })
			f.Reset()
		}
		_ = sum
	})
}

// BenchmarkQueryEndToEnd times the extended-SQL path including planning.
func BenchmarkQueryEndToEnd(b *testing.B) {
	ws := NewWorkspace(WithPageSize(512))
	dict := NewDictionary()
	tok := NewTokenizer(dict)
	texts := []string{
		"database systems engineering", "compiler construction research",
		"distributed storage go", "information retrieval indexing",
	}
	mk := func(name string, shift int) (*Collection, *InvertedFile) {
		docs := make([]*Document, len(texts))
		for i := range texts {
			doc, err := tok.Document(uint32(i), texts[(i+shift)%len(texts)])
			if err != nil {
				b.Fatal(err)
			}
			docs[i] = doc
		}
		c, err := ws.NewCollection(name, docs)
		if err != nil {
			b.Fatal(err)
		}
		inv, err := ws.BuildInvertedFile(c)
		if err != nil {
			b.Fatal(err)
		}
		return c, inv
	}
	resumes, rinv := mk("resumes", 0)
	jobs, jinv := mk("jobs", 1)
	applicants, _ := NewRelation("Applicants", []Column{{Name: "Name", Type: StringType}, {Name: "Resume", Type: TextType}})
	positions, _ := NewRelation("Positions", []Column{{Name: "Title", Type: StringType}, {Name: "Descr", Type: TextType}})
	for i := range texts {
		applicants.Insert(StringValue(fmt.Sprintf("a%d", i)), TextValue(uint32(i)))
		positions.Insert(StringValue(fmt.Sprintf("p%d", i)), TextValue(uint32(i)))
	}
	cat := NewCatalog()
	cat.Register(applicants)
	cat.Register(positions)
	cat.BindText("Applicants", "Resume", TextBinding{Collection: resumes, Inverted: rinv})
	cat.BindText("Positions", "Descr", TextBinding{Collection: jobs, Inverted: jinv})
	eng := NewEngine(cat)
	src := `select P.Title, A.Name from Positions P, Applicants A where A.Resume similar_to(2) P.Descr`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteString(src, QueryOptions{MemoryPages: 100}); err != nil {
			b.Fatal(err)
		}
	}
}
