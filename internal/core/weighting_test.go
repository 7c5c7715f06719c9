package core

import (
	"testing"

	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
)

// BenchmarkJoinWeighting times one warm join per family × weighting on
// WSJ/64 (C1 from seed 1, C2 from seed 2, 1 542 documents each), in one
// pass at λ = 5, into a recycled row set: the table of ROADMAP item 14,
// whose gates read the cosine column against the raw one (HHNL ≤ 1.25×,
// LSH ≤ 1.15×). The paper prices similarity computation at nothing and
// divides by pre-computed norms, so what a join pays for a weighting
// beyond its accumulations is the drain's: tf-idf folds its factor into
// the products, cosine finishes the pairs the admission rule lets through
// (document.Limit).
//
//	go test -run '^$' -bench JoinWeighting -count 9 ./internal/core
func BenchmarkJoinWeighting(b *testing.B) {
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	p := corpus.WSJ.Scaled(64)
	c1, err := corpus.GenerateOn(d, "c1", p, 1)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := corpus.GenerateOn(d, "c2", p, 2)
	if err != nil {
		b.Fatal(err)
	}
	f, err := d.Create("c1.lsh")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := lsh.Build(c1, f, lsh.Config{Bands: 48, Rows: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := Inputs{Outer: c2, Inner: c1, InnerInv: buildInv(b, d, c1, "c1"), OuterInv: buildInv(b, d, c2, "c2")}
	for _, alg := range []Algorithm{HHNL, HVNL, VVM, LSH} {
		for _, w := range []document.Weighting{document.RawTF, document.Cosine, document.TFIDF} {
			b.Run(alg.String()+"/"+w.String(), func(b *testing.B) {
				opts := Options{Lambda: 5, MemoryPages: 20000, Weighting: w}
				if alg == LSH {
					opts.LSH = sc
				}
				dec, err := Plan(alg, in, opts)
				if err != nil {
					b.Fatal(err)
				}
				var rows Rows
				_, st, err := dec.RunInto(in, opts, &rows)
				if err != nil {
					b.Fatal(err)
				}
				if alg != HVNL && st.Passes != 1 {
					b.Fatalf("%d passes, want 1", st.Passes)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if _, _, err := dec.RunInto(in, opts, &rows); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
