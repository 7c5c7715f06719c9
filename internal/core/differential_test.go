package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/reqtrace"
)

// This file is the differential harness: a corpus of adversarial shapes,
// on which the conformance matrix holds every join family to the
// reference, and the check that tracing a join changes neither the
// results nor one byte of the Stats.

// diffShape describes one seeded corpus shape. build returns the two
// document sets; the remaining fields parameterize the join. Each call
// to buildDiffEnv constructs a fresh disk, so head positions (and with
// them the sequential/random classification) start identically for every
// run being compared.
type diffShape struct {
	name     string
	pageSize int
	lambda   int
	mem      int64
	// splits lists the families (LSH is HHNL's) whose join the smallest
	// budget their plan admits splits over every outer kind of the
	// conformance matrix.
	splits []Algorithm
	// recall is the LSH join's recall floor under lshDiffConfig. Everything
	// is seeded, so measured recall is an exact repeatable number per shape
	// and weighting; the floor sits under it with margin for intentional
	// algorithm changes (1 where pairs that share a term collide surely).
	recall float64
	build  func(r *rand.Rand) (c1, c2 []*document.Document)
}

// splitsFamily reports whether the shape runs alg's split cells.
func (s diffShape) splitsFamily(alg Algorithm) bool {
	if alg == LSH {
		alg = HHNL
	}
	return slices.Contains(s.splits, alg)
}

func diffShapes() []diffShape {
	return []diffShape{
		{
			// Baseline: uniform random terms.
			name: "uniform", pageSize: 256, lambda: 4, mem: 300, splits: []Algorithm{HHNL, HVNL, VVM}, recall: 0.85,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 40, 60, 12), randomDocs(r, 35, 60, 12)
			},
		},
		{
			// Heavily skewed document frequencies: a few terms appear
			// almost everywhere (stresses HVNL's cache policy and VVM's
			// merge).
			name: "skewed-df", pageSize: 256, lambda: 4, mem: 300, splits: []Algorithm{HHNL, HVNL, VVM}, recall: 0.85,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				z := rand.NewZipf(r, 1.3, 1, 49)
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(12)+1; j < l; j++ {
							counts[uint32(z.Uint64())]++
						}
						docs[i] = document.New(uint32(i), counts)
					}
					return docs
				}
				return gen(40), gen(40)
			},
		},
		{
			// Every third document is empty on both sides: rows must
			// still appear (with no matches) and nothing may divide by a
			// zero norm.
			name: "empty-docs", pageSize: 256, lambda: 3, mem: 300, splits: []Algorithm{HHNL, HVNL}, recall: 0.85,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						if i%3 == 0 {
							docs[i] = document.New(uint32(i), nil)
							continue
						}
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(10)+1; j < l; j++ {
							counts[uint32(r.Intn(40))]++
						}
						docs[i] = document.New(uint32(i), counts)
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// λ exceeds the inner collection: every outer document keeps
			// all non-zero inner matches.
			name: "lambda-gt-n1", pageSize: 256, lambda: 9, mem: 200, splits: []Algorithm{HHNL}, recall: 0.80,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 4, 25, 8), randomDocs(r, 12, 25, 8)
			},
		},
		{
			// Both collections fit one 4K page: the degenerate I/O case
			// (a single sequential read per scan).
			name: "one-page", pageSize: 4096, lambda: 3, mem: 100, recall: 0.80,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 8, 10, 3), randomDocs(r, 8, 10, 3)
			},
		},
		{
			// Disjoint vocabularies: every similarity is zero, so every
			// algorithm must emit empty match lists for every outer row.
			name: "disjoint-vocab", pageSize: 256, lambda: 3, mem: 200, splits: []Algorithm{HHNL}, recall: 1,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n, lo int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(8)+1; j < l; j++ {
							counts[uint32(lo+r.Intn(30))]++
						}
						docs[i] = document.New(uint32(i), counts)
					}
					return docs
				}
				return gen(20, 0), gen(20, 30)
			},
		},
		{
			// Every document identical: all similarities tie, so results
			// are decided purely by the deterministic tie-break order.
			name: "identical-docs", pageSize: 256, lambda: 5, mem: 200, splits: []Algorithm{HHNL, HVNL}, recall: 1,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = document.New(uint32(i), map[uint32]int{1: 2, 5: 1, 9: 3})
					}
					return docs
				}
				return gen(20), gen(20)
			},
		},
		{
			// One term per document from a tiny vocabulary: maximal
			// entry sharing in the inverted files.
			name: "single-term-docs", pageSize: 256, lambda: 4, mem: 200, splits: []Algorithm{HHNL}, recall: 1,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = document.New(uint32(i), map[uint32]int{uint32(r.Intn(6)): r.Intn(3) + 1})
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// Small pages and a tight budget: at mem every family splits
			// (HHNL and LSH run three batches, VVM two passes, and HVNL's
			// cache evicts), and so it does at the smallest budgets.
			name: "multi-pass", pageSize: 64, lambda: 3, mem: 16, splits: []Algorithm{HHNL, HVNL, VVM}, recall: 0.85,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 50, 40, 10), randomDocs(r, 50, 40, 10)
			},
		},
	}
}

// buildDiffEnv constructs a fresh environment for a shape. Determinism:
// the same (shape, seed) always produces byte-identical collections on a
// disk with pristine head positions.
func buildDiffEnv(tb testing.TB, s diffShape, seed int64) *env {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	docs1, docs2 := s.build(r)
	d := iosim.NewDisk(iosim.WithPageSize(s.pageSize))
	c1 := buildColl(tb, d, "c1", docs1)
	c2 := buildColl(tb, d, "c2", docs2)
	inv1 := buildInv(tb, d, c1, "c1")
	inv2 := buildInv(tb, d, c2, "c2")
	d.ResetStats()
	return &env{disk: d, c1: c1, c2: c2, inv1: inv1, inv2: inv2}
}

func (s diffShape) options() Options {
	return Options{Lambda: s.lambda, MemoryPages: s.mem}
}

// diffFamilies are the join families the harness runs on every shape.
var diffFamilies = []Algorithm{HHNL, HVNL, VVM, LSH}

// variantEnv builds a fresh environment for one variant run, with the
// inner MinHash sidecar the LSH family needs (the exact families ignore
// Options.LSH). Building it for every variant keeps the disks — and so
// the head positions — of all runs being compared identical.
func variantEnv(tb testing.TB, shape diffShape) (*env, Options) {
	tb.Helper()
	e := buildDiffEnv(tb, shape, 1)
	opts := shape.options()
	opts.LSH = buildDiffLSH(tb, e, lshDiffConfig)
	return e, opts
}

// TestTelemetryInvariance pins the trace contract: a request trace
// changes neither the results nor a single byte of the Stats, for every
// family on every shape; on multi-pass each family's join must split, so
// the contract covers several passes. The span the join ran under carries
// its Stats.Counts, and the join's phases hang their spans under it.
// Fresh environments per run keep the disk head
// positions (and so the seq/rand classification) comparable.
func TestTelemetryInvariance(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for _, alg := range diffFamilies {
				off, offOpts := variantEnv(t, shape)
				offRes, offSt, err := Join(alg, off.inputs(), offOpts)
				if err != nil {
					t.Fatalf("%v off: %v", alg, err)
				}

				on, opts := variantEnv(t, shape)
				root := reqtrace.NewTracer(1, time.Now).StartTrace(alg.String())
				opts.Trace = root
				onRes, onSt, err := Join(alg, on.inputs(), opts)
				root.End()
				if err != nil {
					t.Fatalf("%v on: %v", alg, err)
				}

				if err := exactSameResults(offRes, onRes); err != nil {
					t.Errorf("%v: tracing changed results: %v", alg, err)
				}
				if *offSt != *onSt {
					t.Errorf("%v: tracing changed stats:\noff %+v\non  %+v", alg, *offSt, *onSt)
				}
				if shape.name == "multi-pass" && !splitJoin(offSt) {
					t.Errorf("%v: %d passes, %d evictions: the multi-pass shape must split", alg, offSt.Passes, offSt.Cache.Evictions)
				}
				// The run's trace is a well-formed tree whose root carries
				// the join's counts.
				trace := root.Data()
				if err := reqtrace.ValidateData(trace); err != nil {
					t.Errorf("%v: %v", alg, err)
				}
				// The root carries what recordJoinStats writes (TestJoinSpanAttributes).
				want := reqtrace.NewTracer(1, time.Now).StartTrace(alg.String())
				recordJoinStats(want, onSt)
				if got, want := trace.Spans[len(trace.Spans)-1].Attrs, want.Data().Spans[0].Attrs; !slices.Equal(got, want) {
					t.Errorf("%v: root attributes %v, want %v", alg, got, want)
				}
				// Every phase hangs its spans under the root: a traced
				// join records more than the root's own phase.
				phases := map[string]int{}
				for _, sp := range trace.Spans {
					phases[sp.Phase]++
				}
				if len(phases) < 2 {
					t.Errorf("%v: trace recorded no phase span: %v", alg, phases)
				}
			}
		})
	}
}

// TestNilTracePhaseDoesNotAllocate pins the disabled path of the one span
// model: with no trace, opening and closing a phase and writing a
// finished join's Stats, plan and plan audit on it are nil checks only —
// nothing allocates (and, the spans being nil, no clock is read).
func TestNilTracePhaseDoesNotAllocate(t *testing.T) {
	var opts Options
	st := &Stats{Algorithm: HVNL, Prefilter: PrefilterStats{Enabled: true}}
	dec := Decision{Chosen: HHNL, Estimates: []costmodel.Estimate{{Algorithm: costmodel.AlgHHNL, Seq: 10, Rand: 20}}, estimate: 10}
	allocs := testing.AllocsPerRun(100, func() {
		phase := opts.Trace.StartChild(reqtrace.PhaseScan, "hhnl.fill-batch")
		phase.End()
		recordJoinStats(opts.Trace, st)
		plan := opts.Trace.StartChild(reqtrace.PhasePlan, "integrated.choose")
		recordPlan(plan, dec)
		plan.End()
		recordPlanAudit(opts.Trace, dec, 12)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace phase path allocates %.1f per op, want 0", allocs)
	}
}

// TestJoinSpanAttributes holds every family's span attributes, in order, to
// a table: the names and values of a Stats whose every count differs.
func TestJoinSpanAttributes(t *testing.T) {
	own := "outer_docs=1 inner_docs=2 comparisons=3 accumulations=4 entry_fetches=5 passes=6 io.seq=7 io.rand=8 peak_bytes=9 tracker_entries=22 cells_decoded=23"
	for _, c := range []struct {
		alg  Algorithm
		want string
	}{
		{HHNL, own}, {VVM, own + " pairs=10"},
		{HHNL, own + " prefilter.pages_skipped=11 prefilter.clusters_skipped=12 prefilter.docs_skipped=13 prefilter.false_passes=14"},
		{HVNL, own + " pairs=10 cache.hits=19 cache.misses=20 cache.evictions=21"},
		{LSH, own + " bucket_probes=15 candidates=16 pages_skipped=17 docs_skipped=18"},
	} {
		st := &Stats{Algorithm: c.alg, OuterDocs: 1, InnerDocs: 2, Comparisons: 3, Accumulations: 4, EntryFetches: 5, Passes: 6,
			IO: iosim.Stats{SeqReads: 7, RandReads: 8}, PeakMemoryBytes: 9, TrackerEntries: 22, CellsDecoded: 23, Pairs: 10,
			Prefilter: PrefilterStats{Enabled: strings.Contains(c.want, "prefilter"), PagesSkipped: 11, ClustersSkipped: 12, DocsSkipped: 13, FalsePasses: 14},
			LSH:       LSHStats{Enabled: c.alg == LSH, BucketProbes: 15, Candidates: 16, PagesSkipped: 17, DocsSkipped: 18},
			Cache:     entrycache.Stats{Hits: 19, Misses: 20, Evictions: 21}}
		root := reqtrace.NewTracer(1, time.Now).StartTrace("join")
		recordJoinStats(root, st)
		var got []string
		for _, a := range root.Data().Spans[0].Attrs {
			got = append(got, a.Key+"="+a.Value)
		}
		p := " join." + strings.ToLower(c.alg.String()) + "."
		if want := strings.ReplaceAll(" "+c.want, " ", p)[1:]; strings.Join(got, " ") != want {
			t.Errorf("%v:\n got %s\nwant %s", c.alg, strings.Join(got, " "), want)
		}
	}
}

// lshDiffConfig is the banding shape the LSH axis runs under: 32
// single-row bands keep the candidate S-curve 1−(1−s)^32 high even for
// the low-Jaccard pairs the small adversarial corpora produce, so the
// recall floors below are meaningful rather than vacuously tiny.
var lshDiffConfig = lsh.Config{Bands: 32, Rows: 1, Seed: 7}

// buildDiffLSH builds the inner collection's MinHash sidecar on the
// shape's disk and re-zeroes the I/O stats, so runs being compared start
// from identical head positions whether or not they built a sidecar.
func buildDiffLSH(tb testing.TB, e *env, cfg lsh.Config) *lsh.Sidecar {
	tb.Helper()
	f, err := e.disk.Create("c1.lsh")
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := lsh.Build(e.c1, f, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.disk.ResetStats()
	return sc
}

// exactSameResults reports the first difference between two result sets:
// the same rows, and in each the same matches with bit-identical
// similarities.
func exactSameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("result count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Outer != b[i].Outer {
			return fmt.Errorf("row %d outer %d vs %d", i, a[i].Outer, b[i].Outer)
		}
		if len(a[i].Matches) != len(b[i].Matches) {
			return fmt.Errorf("outer %d match count %d vs %d", a[i].Outer, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			ma, mb := a[i].Matches[j], b[i].Matches[j]
			if ma.Doc != mb.Doc || math.Float64bits(ma.Sim) != math.Float64bits(mb.Sim) {
				return fmt.Errorf("outer %d match %d: %+v vs %+v", a[i].Outer, j, ma, mb)
			}
		}
	}
	return nil
}
