package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"textjoin"
)

// A run is many short rounds, each a fixed list of operations, and its
// timing metrics are a low percentile over the rounds, not a median.
// On the 2-core virtual machine the benchmark was sized on, neighbours
// slow a CPU-bound loop by 10 to 30 % for seconds at a time, so the
// median round of a 20 s run says which phases the run fell into:
// across ten runs of identical code it spread 9 to 19 %. The fastest
// tenth of the rounds ran while the machine was quiet, and spread 3 to
// 6 % over the same runs. quiet is that percentile.
const quiet = 10

// warmups is the number of untimed operations of each kind that run
// before the first round. They fill the norm and idf memoisation and
// the term index, and let the heap reach its working size.
const warmups = 2

// sample is one finished operation.
type sample struct {
	kind      int
	ms        float64 // latency the caller saw
	docs      int64   // outer documents joined
	cost      float64 // page reads priced at α
	seqReads  int64
	randReads int64
	v         verdict
	err       error
	// What textjoind reported about the request; zero in-process.
	queueMs, execMs, wallMs float64
	respBytes               int64
	rejected                bool
	prefilter               textjoin.PrefilterStats
	lsh                     textjoin.LSHStats
}

func (s sample) failed() bool { return s.err != nil || !s.v.ok() }

// pick collects one number from every sample of a kind, or of every
// kind when kind is negative.
func pick(samples []sample, kind int, f func(sample) float64) []float64 {
	var xs []float64
	for _, sm := range samples {
		if kind < 0 || sm.kind == kind {
			xs = append(xs, f(sm))
		}
	}
	return xs
}

func latencyOf(sm sample) float64 { return sm.ms }

// memory is the cumulative allocation and collector counters, and the
// resident size, of the process that runs the joins: this process for
// the in-process workloads, textjoind for serve_mix.
type memory struct {
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
	rssMB      float64
}

func (m memory) minus(o memory) memory {
	return memory{m.allocBytes - o.allocBytes, m.gcCycles - o.gcCycles, m.gcPauseMs - o.gcPauseMs, m.rssMB}
}

// fixture is a workload that has been set up: it runs operations of its
// kinds and checks each result against its reference.
type fixture interface {
	kinds() []kind
	// clients is the number of closed-loop callers.
	clients() int
	do(rec *recorder, op string, kind int) sample
	// stats is the JoinStats of an operation of the kind, from the last
	// in-process run of it.
	stats(kind int) *textjoin.JoinStats
	// cpuMs is the user and system CPU time the joining process has
	// used so far. It is read around every round, so it must be cheap.
	cpuMs() (float64, error)
	memory() (memory, error)
	// world is the in-process workspace holding the same data the
	// operations run on, for the layer drives; probe is the outer side
	// and the options of the workload's first kind.
	world() *world
	probe() (textjoin.Reader, textjoin.Options)
	// serverMetrics are the per-layer metrics only a server has, from
	// the untraced samples and from solo requests it sends itself. They
	// are all 0 in-process.
	serverMetrics(all []sample) (vals map[string]float64, solo []sample, err error)
	close()
}

// kind is one sort of operation in a workload's list.
type kind struct {
	name string
	// solo kinds are not in the operation list; the traced run sends
	// them one at a time to compare with their listed counterpart.
	solo bool
}

// spec describes a workload before set-up.
type spec struct {
	name string
	// setupRuns is how many complete fresh set-ups are timed for
	// setup_s: 9 where one takes tens of milliseconds, 5 otherwise.
	setupRuns int
	// passes is how many times one round goes over the listed kinds.
	passes int
	// nominalMs is the time one round takes on the 2-core box the
	// benchmark was sized on. It only converts -seconds into a fixed
	// number of rounds, so that counts are exact from run to run.
	nominalMs float64
	// prepare, when set, runs once before any set-up and is not timed.
	prepare func() error
	setup   func(seed int64) (fixture, error)
}

func specs() []spec {
	return []spec{hhnlScan, hvnlProbe, vvmMerge, serveMix}
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// roundsFor converts the nominal length of the timed phase into a
// number of rounds.
func roundsFor(s spec, seconds float64) int {
	return max(1, int(math.Round(seconds*1e3/s.nominalMs)))
}

// opList is one round's operations: passes times every listed kind, in
// an order drawn from the seed.
func opList(kinds []kind, passes int, seed int64) []int {
	var listed []int
	for i, k := range kinds {
		if !k.solo {
			listed = append(listed, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var list []int
	for p := 0; p < passes; p++ {
		list = append(list, listed...)
		pass := list[len(list)-len(listed):]
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	}
	return list
}

// measureSetup times k complete fresh set-ups from the seed, with a
// collection before each, and keeps the last one.
func measureSetup(s spec, seed int64, k int) (fixture, []float64, error) {
	var fx fixture
	var secs []float64
	for i := 0; i < k; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = s.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return fx, secs, nil
}

// round is one timed pass over a round's operation list.
type round struct {
	samples []sample
	wallS   float64
	cpuMs   float64
}

// meanMs is the round's mean operation latency. A round holds every
// listed kind equally often, so the mean weighs them equally; a median
// over kinds of unlike cost would sit in the gap between two of them.
func (r round) meanMs() float64 {
	return sum(pick(r.samples, -1, latencyOf)) / float64(len(r.samples))
}

func (r round) docsPerS() float64 {
	var docs float64
	for _, s := range r.samples {
		docs += float64(s.docs)
	}
	return docs / r.wallS
}

func (r round) cpuMsPerOp() float64 { return r.cpuMs / float64(len(r.samples)) }

// runRound sends the list through the fixture's closed-loop callers:
// each takes the next operation when its previous one has finished, and
// the round ends when all have.
func runRound(fx fixture, rec *recorder, list []int, firstOp int) (round, error) {
	before, err := fx.cpuMs()
	if err != nil {
		return round{}, err
	}
	r := round{samples: make([]sample, len(list))}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < fx.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				r.samples[i] = fx.do(rec, strconv.Itoa(firstOp+i), list[i])
			}
		}()
	}
	wg.Wait()
	r.wallS = time.Since(t0).Seconds()
	after, err := fx.cpuMs()
	if err != nil {
		return round{}, err
	}
	r.cpuMs = after - before
	return r, nil
}

// runRounds runs n rounds of the list and also returns what they
// allocated and collected in all. The collector runs once before the
// first round and is left alone after that.
func runRounds(fx fixture, rec *recorder, list []int, n, firstOp int) ([]round, memory, error) {
	runtime.GC()
	before, err := fx.memory()
	if err != nil {
		return nil, memory{}, err
	}
	rs := make([]round, n)
	for i := range rs {
		if rs[i], err = runRound(fx, rec, list, firstOp+i*len(list)); err != nil {
			return nil, memory{}, err
		}
	}
	after, err := fx.memory()
	if err != nil {
		return nil, memory{}, err
	}
	return rs, after.minus(before), nil
}

func warmUp(fx fixture) error {
	for k, kd := range fx.kinds() {
		for i := 0; i < warmups && !kd.solo; i++ {
			if s := fx.do(nil, "warmup", k); s.failed() {
				return fmt.Errorf("warm-up %s: %w", kd.name, failure(s))
			}
		}
	}
	return nil
}

func failure(s sample) error {
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("result differs from reference: %s", s.v.bad)
}

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one run of one workload reports.
type outcome struct {
	workload          string
	attempted, failed int
	firstFailure      error
	metrics           []metric
	// rounds is the number of timed rounds behind the percentiles.
	rounds int
}

func (o *outcome) count(rs []round) {
	for _, r := range rs {
		for _, s := range r.samples {
			o.attempted++
			if s.failed() {
				o.failed++
				if o.firstFailure == nil {
					o.firstFailure = failure(s)
				}
			}
		}
	}
}

// overRounds applies f to each round and returns the p-th percentile.
func overRounds(rs []round, p float64, f func(round) float64) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	return percentile(vals, p)
}

// endToEnd runs a workload untraced and reports the end-to-end metrics.
func endToEnd(s spec, seed int64, nRounds, setupRuns int) (*outcome, error) {
	fx, setups, err := measureSetup(s, seed, setupRuns)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if err := warmUp(fx); err != nil {
		return nil, err
	}
	rs, mem, err := runRounds(fx, nil, opList(fx.kinds(), s.passes, seed), nRounds, 0)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: s.name, rounds: nRounds}
	out.count(rs)
	var hit, want, cost float64
	for _, r := range rs {
		for _, sm := range r.samples {
			hit += float64(sm.v.hit)
			want += float64(sm.v.want)
			cost += sm.cost
		}
	}
	ops := float64(out.attempted)
	out.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"op_ms_p10", overRounds(rs, quiet, round.meanMs), "ms"},
		{"docs_per_s", overRounds(rs, 100-quiet, round.docsPerS), "docs/s"},
		{"cpu_ms_per_op", overRounds(rs, quiet, round.cpuMsPerOp), "ms"},
		{"alloc_kb_per_op", mem.allocBytes / 1024 / ops, "KiB"},
		{"io_cost_per_op", cost / ops, "pages"},
		{"recall", ratio(hit, want), "fraction"},
	}
	return out, nil
}
