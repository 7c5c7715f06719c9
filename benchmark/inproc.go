package main

import (
	"runtime"
	"syscall"
	"time"

	"textjoin"
)

// The three in-process workloads. Each is one join repeated by one
// caller; they differ in which layers the join spends its time in.

// hhnlScan is the paper's Group 1 shape: two whole collections and a
// buffer that holds a third of the outer one, so the inner collection is
// swept three times. The time goes to collection scan, record decode,
// dot product and top-λ; no inverted file is touched.
var hhnlScan = spec{
	name: "hhnl_scan", setupRuns: 9, passes: 1, nominalMs: 345,
	setup: func(seed int64) (fixture, error) {
		return newInproc(seed, 96, structures{}, 0, textjoin.HHNL,
			textjoin.Options{Lambda: lambda, MemoryPages: 32, Weighting: textjoin.RawTF})
	},
}

// hvnlProbe is the paper's Group 3 shape, where a selection leaves a
// small outer side: 600 documents probe the inverted file of 6171
// through an entry cache smaller than its working set. The time goes to
// index lookups, random entry fetches, cache eviction and the flat
// accumulator; the sequential scanners do almost nothing.
var hvnlProbe = spec{
	name: "hvnl_probe", setupRuns: 5, passes: 1, nominalMs: 240,
	setup: func(seed int64) (fixture, error) {
		return newInproc(seed, 16, structures{inv1: true}, 600, textjoin.HVNL,
			textjoin.Options{Lambda: lambda, MemoryPages: 300, Weighting: textjoin.TFIDF})
	},
}

// vvmMerge merges two inverted files in seven partitions because the
// accumulator budget is tight. The time goes to inverted-file scans and
// the table accumulator; it allocates the most, so the collector's cost
// shows here first.
var vvmMerge = spec{
	name: "vvm_merge", setupRuns: 9, passes: 1, nominalMs: 480,
	setup: func(seed int64) (fixture, error) {
		return newInproc(seed, 64, structures{inv1: true, inv2: true}, 0, textjoin.VVM,
			textjoin.Options{Lambda: lambda, MemoryPages: 40, Weighting: textjoin.Cosine})
	},
}

// inproc is a set-up in-process workload.
type inproc struct {
	w    *world
	alg  textjoin.Algorithm
	in   textjoin.Inputs
	opts textjoin.Options

	truth *truth
	known map[uint64]verdict
	last  *textjoin.JoinStats
}

// newInproc builds the world and, when subset is not 0, restricts the
// outer side to that many evenly spaced documents whose offset comes
// from the seed.
func newInproc(seed, scale int64, s structures, subset int, alg textjoin.Algorithm, opts textjoin.Options) (fixture, error) {
	w, err := buildWorld(scale, seed, s)
	if err != nil {
		return nil, err
	}
	f := &inproc{w: w, alg: alg, in: w.inputs(), opts: opts, known: map[uint64]verdict{}}
	if subset > 0 {
		step := uint32(w.c2.NumDocs()) / uint32(subset)
		ids := make([]uint32, subset)
		for i := range ids {
			ids[i] = uint32(i)*step + uint32(seed)%step
		}
		sub, err := w.c2.Subset(ids)
		if err != nil {
			return nil, err
		}
		f.in.Outer = sub
	}
	return f, nil
}

func (f *inproc) kinds() []kind { return []kind{{name: "join"}} }
func (f *inproc) clients() int  { return 1 }
func (f *inproc) world() *world { return f.w }
func (f *inproc) close()        {}

func (f *inproc) stats(int) *textjoin.JoinStats { return f.last }

func (f *inproc) probe() (textjoin.Reader, textjoin.Options) { return f.in.Outer, f.opts }

func (f *inproc) serverMetrics([]sample) (map[string]float64, []sample, error) { return nil, nil, nil }

func (f *inproc) do(rec *recorder, op string, _ int) sample {
	// Parked heads make the first page read of each file random in
	// every operation, whatever ran before it.
	f.w.ws.ParkHeads()
	root := rec.start(op, -1, "op")
	call := rec.start(op, root, "textjoin.Join")
	t0 := time.Now()
	results, st, err := textjoin.Join(f.alg, f.in, f.opts)
	ms := time.Since(t0).Seconds() * 1e3
	rec.end(call)
	defer rec.end(root)
	if err != nil {
		return sample{ms: ms, err: err}
	}
	check := rec.start(op, root, "harness.check")
	v, err := f.verify(results)
	rec.end(check)
	f.last = st
	return sample{
		ms: ms, docs: st.OuterDocs, cost: st.Cost, seqReads: st.IO.SeqReads, randReads: st.IO.RandReads,
		v: v, err: err, prefilter: st.Prefilter, lsh: st.LSH,
	}
}

// verify checks a result set against the brute-force truth the first
// time its digest is seen.
func (f *inproc) verify(results []textjoin.Result) (verdict, error) {
	h := resultHash(results)
	if v, ok := f.known[h]; ok {
		return v, nil
	}
	if f.truth == nil {
		t, err := bruteForce(f.in.Outer, f.in.Inner, f.opts.Weighting, f.opts.Lambda)
		if err != nil {
			return verdict{}, err
		}
		f.truth = t
	}
	v := f.truth.check(results, true)
	f.known[h] = v
	return v, nil
}

func (f *inproc) cpuMs() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

func (f *inproc) memory() (memory, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return memory{}, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memory{
		allocBytes: float64(m.TotalAlloc),
		gcCycles:   float64(m.NumGC),
		gcPauseMs:  float64(m.PauseTotalNs) / 1e6,
		rssMB:      float64(ru.Maxrss) / 1024,
	}, nil
}
