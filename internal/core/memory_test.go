package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/signature"
)

// resultBytes is what a join's result rows hold, counted as the memory
// model counts them.
func resultBytes(results []Result) int64 {
	n := int64(len(results)) * rowBytes
	for _, r := range results {
		n += int64(cap(r.Matches)) * matchBytes
	}
	return n
}

// TestPlanChargesWhatJoinsHold holds the one memory model to the joins:
// over every family, weighting and pass regime, the plan's PeakBytes is
// at least what the join measured holding — Stats.PeakMemoryBytes plus
// its result rows — and at most twice that. Each row also logs the bytes
// the run allocated (TotalAlloc, collector off), which counts what the
// model does not: the batch cells at 8 bytes in memory against 5 packed,
// and every buffer that grows by doubling. A VVM run must allocate at
// most twice its charge: its plan starts a pass in the matrix when the
// table would promote, so no table chain is built and thrown away.
func TestPlanChargesWhatJoinsHold(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d := iosim.NewDisk()
	create := func(name string) *iosim.File {
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	c1, err := corpus.GenerateOn(d, "c1", corpus.WSJ.Scaled(128), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := corpus.GenerateOn(d, "c2", corpus.WSJ.Scaled(128), 2)
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := invfile.Build(c1, create("c1.inv"), create("c1.bt"))
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := invfile.Build(c2, create("c2.inv"), create("c2.bt"))
	if err != nil {
		t.Fatal(err)
	}
	sig1, err := signature.Build(c1, create("c1.sig"), signature.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := signature.Build(c2, create("c2.sig"), signature.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := lsh.Build(c1, create("c1.lsh"), lsh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}

	families := []struct {
		name string
		alg  Algorithm
		opts Options
		// pages is B for {one pass, several passes}: enough for the whole
		// join, and a budget that splits it.
		pages [2]int64
	}{
		{"hhnl", HHNL, Options{}, [2]int64{10000, 10}},
		{"hhnl-prefilter", HHNL, Options{Prefilter: &Prefilter{Inner: sig1, Outer: sig2}}, [2]int64{10000, 10}},
		{"hvnl", HVNL, Options{}, [2]int64{10000, 20}},
		{"vvm", VVM, Options{}, [2]int64{10000, 20}},
		{"lsh", LSH, Options{LSH: sc}, [2]int64{10000, 10}},
	}
	for _, f := range families {
		for _, w := range []document.Weighting{document.RawTF, document.Cosine, document.TFIDF} {
			for regime, pages := range f.pages {
				opts := f.opts
				opts.Lambda, opts.MemoryPages, opts.Weighting = 5, pages, w
				dec, err := Plan(f.alg, in, opts)
				if err != nil {
					t.Fatalf("%s %v B=%d: %v", f.name, w, pages, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				results, st, err := dec.Run(in, opts)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s %v B=%d: %v", f.name, w, pages, err)
				}
				if several := st.Passes > 1 || st.Cache.Evictions > 0; several != (regime == 1) {
					t.Fatalf("%s %v B=%d: %d passes, %d evictions", f.name, w, pages, st.Passes, st.Cache.Evictions)
				}
				measured := st.PeakMemoryBytes + resultBytes(results)
				alloc := int64(after.TotalAlloc - before.TotalAlloc)
				t.Logf("%-14s %-6v B=%-5d passes=%d charged=%8d measured=%8d (%.2f) alloc=%8d (%.2f of charged)",
					f.name, w, pages, st.Passes, dec.PeakBytes, measured,
					float64(dec.PeakBytes)/float64(measured), alloc, float64(alloc)/float64(dec.PeakBytes))
				if measured > dec.PeakBytes || dec.PeakBytes > 2*measured {
					t.Errorf("%s %v B=%d: charged %d bytes, measured %d: want measured ≤ charged ≤ 2 × measured",
						f.name, w, pages, dec.PeakBytes, measured)
				}
				if f.alg == VVM && alloc > 2*dec.PeakBytes {
					t.Errorf("%s %v B=%d: allocated %d bytes, charged %d: want allocated ≤ 2 × charged",
						f.name, w, pages, alloc, dec.PeakBytes)
				}
			}
		}
	}
}
