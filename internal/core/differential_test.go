package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

// This file is the differential harness promised by the telemetry layer:
// every exact join family must return the identical top-λ on a corpus of
// adversarial shapes, and attaching a telemetry collector must change
// neither the results nor one byte of the Stats.

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
	delta    float64
	build    func(r *rand.Rand) (c1, c2 []*document.Document)
}

// docOf builds one document from explicit term counts.
func docOf(id uint32, counts map[uint32]int) *document.Document {
	return document.New(id, counts)
}

func diffShapes() []diffShape {
	return []diffShape{
		{
			// Baseline: uniform random terms.
			name: "uniform", pageSize: 256, lambda: 4, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 40, 60, 12), randomDocs(r, 35, 60, 12)
			},
		},
		{
			// Heavily skewed document frequencies: a few terms appear
			// almost everywhere (stresses HVNL's cache policy and VVM's
			// merge).
			name: "skewed-df", pageSize: 256, lambda: 4, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				z := rand.NewZipf(r, 1.3, 1, 49)
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(12)+1; j < l; j++ {
							counts[uint32(z.Uint64())]++
						}
						docs[i] = docOf(uint32(i), counts)
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
			name: "empty-docs", pageSize: 256, lambda: 3, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						if i%3 == 0 {
							docs[i] = docOf(uint32(i), nil)
							continue
						}
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(10)+1; j < l; j++ {
							counts[uint32(r.Intn(40))]++
						}
						docs[i] = docOf(uint32(i), counts)
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// λ exceeds the inner collection: every outer document keeps
			// all non-zero inner matches.
			name: "lambda-gt-n1", pageSize: 256, lambda: 9, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 4, 25, 8), randomDocs(r, 12, 25, 8)
			},
		},
		{
			// Both collections fit one 4K page: the degenerate I/O case
			// (a single sequential read per scan).
			name: "one-page", pageSize: 4096, lambda: 3, mem: 100,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 8, 10, 3), randomDocs(r, 8, 10, 3)
			},
		},
		{
			// Disjoint vocabularies: every similarity is zero, so every
			// algorithm must emit empty match lists for every outer row.
			name: "disjoint-vocab", pageSize: 256, lambda: 3, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n, lo int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(8)+1; j < l; j++ {
							counts[uint32(lo+r.Intn(30))]++
						}
						docs[i] = docOf(uint32(i), counts)
					}
					return docs
				}
				return gen(20, 0), gen(20, 30)
			},
		},
		{
			// Every document identical: all similarities tie, so results
			// are decided purely by the deterministic tie-break order.
			name: "identical-docs", pageSize: 256, lambda: 5, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = docOf(uint32(i), map[uint32]int{1: 2, 5: 1, 9: 3})
					}
					return docs
				}
				return gen(20), gen(20)
			},
		},
		{
			// One term per document from a tiny vocabulary: maximal
			// entry sharing in the inverted files.
			name: "single-term-docs", pageSize: 256, lambda: 4, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = docOf(uint32(i), map[uint32]int{uint32(r.Intn(6)): r.Intn(3) + 1})
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// Tight memory and δ=1 force VVM into multiple partitions
			// (and HHNL into multiple batches).
			name: "multi-pass", pageSize: 64, lambda: 3, mem: 30, delta: 1,
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
	return Options{Lambda: s.lambda, MemoryPages: s.mem, Delta: s.delta}
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

// TestDifferentialShapes is the cross-algorithm harness: on every shape
// HVNL and VVM must equal the HHNL baseline.
func TestDifferentialShapes(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			want, _, err := Join(HHNL, baseEnv.inputs(), shape.options())
			if err != nil {
				t.Fatalf("baseline HHNL: %v", err)
			}
			for _, alg := range []Algorithm{HVNL, VVM} {
				e := buildDiffEnv(t, shape, 1)
				got, _, err := Join(alg, e.inputs(), shape.options())
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if err := sameResults(want, got); err != nil {
					t.Errorf("%v differs from baseline: %v", alg, err)
				}
			}
		})
	}
}

// TestTelemetryInvariance pins the telemetry contract: an attached
// collector and request trace change neither the results nor a single
// byte of the Stats, for every family on every shape. Fresh environments
// per run keep the disk head positions (and so the seq/rand
// classification) comparable.
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
				tel := telemetry.New()
				on.disk.SetCollector(tel)
				opts.Telemetry = tel
				root := reqtrace.NewTracer(1, time.Now).StartTrace(alg.String())
				opts.Trace = root
				onRes, onSt, err := Join(alg, on.inputs(), opts)
				root.End()
				if err != nil {
					t.Fatalf("%v on: %v", alg, err)
				}

				if err := exactSameResults(offRes, onRes); err != nil {
					t.Errorf("%v: telemetry changed results: %v", alg, err)
				}
				if *offSt != *onSt {
					t.Errorf("%v: telemetry changed stats:\noff %+v\non  %+v", alg, *offSt, *onSt)
				}
				// The run's trace is a well-formed tree, and the phase
				// histograms derived from it count exactly its spans.
				trace := root.Data()
				if err := reqtrace.ValidateData(trace); err != nil {
					t.Errorf("%v: %v", alg, err)
				}
				reqtrace.ObservePhases(tel, trace)
				spans := map[string]int64{}
				for _, sp := range trace.Spans {
					spans["phase."+sp.Phase+".ns"]++
				}
				s := tel.Snapshot()
				if len(s.Counters) == 0 || len(spans) < 2 {
					t.Errorf("%v: enabled collector or trace recorded nothing", alg)
				}
				for _, h := range s.Histograms {
					if n, ok := spans[h.Name]; ok && n != h.Count {
						t.Errorf("%v: %s counts %d, trace has %d such spans", alg, h.Name, h.Count, n)
					}
					delete(spans, h.Name)
				}
				if len(spans) != 0 {
					t.Errorf("%v: phases with spans but no histogram: %v", alg, spans)
				}
			}
		})
	}
}

// TestNilTracePhaseDoesNotAllocate pins the disabled path of the one span
// model: with no trace and no collector, opening and closing a phase and
// publishing a finished join's Stats, plan and plan audit are nil checks
// only — nothing allocates (and, the spans being nil, no clock is read).
func TestNilTracePhaseDoesNotAllocate(t *testing.T) {
	var opts Options
	st := &Stats{Algorithm: HVNL, Prefilter: PrefilterStats{Enabled: true}}
	dec := Decision{Chosen: HHNL, Estimates: []costmodel.Estimate{{Algorithm: costmodel.AlgHHNL, Seq: 10, Rand: 20}}, estimate: 10}
	allocs := testing.AllocsPerRun(100, func() {
		phase := opts.Trace.StartChild(reqtrace.PhaseScan, "hhnl.fill-batch")
		phase.End()
		recordJoinStats(opts.Telemetry, opts.Trace, st)
		plan := opts.Trace.StartChild(reqtrace.PhasePlan, "integrated.choose")
		recordPlan(opts.Telemetry, plan, dec)
		plan.End()
		recordPlanAudit(opts.Telemetry, opts.Trace, dec, 12)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace phase path allocates %.1f per op, want 0", allocs)
	}
}

// TestTelemetryConcurrentSnapshots runs joins while another goroutine
// snapshots the shared collector continuously: collection must be safe
// under concurrency and still not perturb the results.
func TestTelemetryConcurrentSnapshots(t *testing.T) {
	shape := diffShapes()[0]
	baseEnv := buildDiffEnv(t, shape, 1)
	want, _, err := Join(HHNL, baseEnv.inputs(), shape.options())
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				tel.Snapshot()
			}
		}
	}()

	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		e := buildDiffEnv(t, shape, 1)
		e.disk.SetCollector(tel)
		opts := shape.options()
		opts.Telemetry = tel
		got, _, err := Join(alg, e.inputs(), opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := sameResults(want, got); err != nil {
			t.Errorf("%v under concurrent snapshots: %v", alg, err)
		}
	}
	close(done)
	wg.Wait()

	snap := tel.Snapshot()
	if len(snap.Counters) == 0 {
		t.Error("no counters collected")
	}
}

// lshDiffConfig is the banding shape the LSH axis runs under: 32
// single-row bands keep the candidate S-curve 1−(1−s)^32 high even for
// the low-Jaccard pairs the small adversarial corpora produce, so the
// recall floors below are meaningful rather than vacuously tiny.
var lshDiffConfig = lsh.Config{Bands: 32, Rows: 1, Seed: 7}

// lshRecallFloors maps shape name → the measured-recall floor under
// lshDiffConfig. Everything is seeded and deterministic, so measured
// recall is an exact repeatable number per shape; the floors sit under
// the observed values with margin for intentional algorithm changes.
func lshRecallFloors() map[string]float64 {
	return map[string]float64{
		"uniform":          0.85,
		"skewed-df":        0.85,
		"empty-docs":       0.85,
		"lambda-gt-n1":     0.80,
		"one-page":         0.80,
		"disjoint-vocab":   1.00, // no exact pairs: recall is trivially 1
		"identical-docs":   1.00, // Jaccard 1 pairs always collide
		"single-term-docs": 1.00, // sharing the single term ⇒ same MinHash
		"multi-pass":       0.85,
	}
}

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

// collectDocs reads a whole collection into an id-indexed map.
func collectDocs(tb testing.TB, c *collection.Collection) map[uint32]*document.Document {
	tb.Helper()
	out := make(map[uint32]*document.Document)
	sc := c.Scan()
	for {
		d, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		out[d.ID] = d
	}
	return out
}

// exactSameResults is sameResults with byte-for-byte similarity
// equality — the LSH axis demands the verified scores be bit-identical
// to the exact scorer, not merely within tolerance.
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

// TestDifferentialLSH is the approximate join's axis of the harness: on
// every shape, the LSH join must (1) return one row per outer document
// in outer order, (2) achieve measured recall ≥ the configured floor
// against the exact ground truth, (3) show perfect precision — every
// returned similarity byte-for-byte equal to the exact scorer on the
// underlying documents. (Its run-to-run determinism is a row of
// TestTelemetryInvariance.)
func TestDifferentialLSH(t *testing.T) {
	floors := lshRecallFloors()
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			exact := reference(t, baseEnv.c2, baseEnv.c1, shape.lambda, rawScorer(t))

			e := buildDiffEnv(t, shape, 1)
			sc := buildDiffLSH(t, e, lshDiffConfig)
			opts := shape.options()
			opts.LSH = sc
			got, st, err := Join(LSH, e.inputs(), opts)
			if err != nil {
				t.Fatalf("LSH join: %v", err)
			}
			if st.Algorithm != LSH || !st.LSH.Enabled {
				t.Fatalf("stats not marked as LSH: %+v", st)
			}

			// (1) Row shape: same outer documents, same order, non-nil
			// match lists (empty rows must still appear).
			if len(got) != len(exact) {
				t.Fatalf("LSH returned %d rows, exact %d", len(got), len(exact))
			}
			for i := range got {
				if got[i].Outer != exact[i].Outer {
					t.Fatalf("row %d outer %d, exact has %d", i, got[i].Outer, exact[i].Outer)
				}
				if got[i].Matches == nil {
					t.Fatalf("outer %d: nil match list", got[i].Outer)
				}
			}

			// (3) Perfect precision: re-score every returned pair.
			innerDocs := collectDocs(t, e.c1)
			outerDocs := collectDocs(t, e.c2)
			scorer := rawScorer(t)
			for _, res := range got {
				for _, m := range res.Matches {
					if m.Sim <= 0 {
						t.Fatalf("outer %d returned non-positive similarity %v for doc %d", res.Outer, m.Sim, m.Doc)
					}
					want := scorer.Score(outerDocs[res.Outer], innerDocs[m.Doc])
					if math.Float64bits(m.Sim) != math.Float64bits(want) {
						t.Fatalf("outer %d doc %d: returned sim %v (bits %x), exact scorer %v (bits %x)",
							res.Outer, m.Doc, m.Sim, math.Float64bits(m.Sim), want, math.Float64bits(want))
					}
				}
			}

			// (2) Measured recall over the exact top-λ pair set.
			type pair struct{ o, i uint32 }
			exactPairs := make(map[pair]bool)
			for _, res := range exact {
				for _, m := range res.Matches {
					exactPairs[pair{res.Outer, m.Doc}] = true
				}
			}
			hits := 0
			for _, res := range got {
				for _, m := range res.Matches {
					if exactPairs[pair{res.Outer, m.Doc}] {
						hits++
					}
				}
			}
			recall := 1.0
			if len(exactPairs) > 0 {
				recall = float64(hits) / float64(len(exactPairs))
			}
			floor, ok := floors[shape.name]
			if !ok {
				t.Fatalf("no recall floor configured for shape %q", shape.name)
			}
			if recall < floor {
				t.Errorf("measured recall %.4f below floor %.2f (%d of %d exact pairs)",
					recall, floor, hits, len(exactPairs))
			}
			t.Logf("recall %.4f (floor %.2f), %d candidates, %d pages skipped",
				recall, floor, st.LSH.Candidates, st.LSH.PagesSkipped)
		})
	}
}

// TestDifferentialReference anchors the harness itself: the serial HHNL
// baseline must match the brute-force reference on every shape, so shape
// bugs cannot hide behind all algorithms agreeing on a wrong answer.
func TestDifferentialReference(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			e := buildDiffEnv(t, shape, 1)
			got, _, err := Join(HHNL, e.inputs(), shape.options())
			if err != nil {
				t.Fatal(err)
			}
			want := reference(t, e.c2, e.c1, shape.lambda, rawScorer(t))
			if err := sameResults(want, got); err != nil {
				t.Fatal(err)
			}
			if errors.Is(err, ErrInsufficientMemory) {
				t.Fatal("shape parameters must be feasible")
			}
		})
	}
}
