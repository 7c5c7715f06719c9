package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"textjoin/internal/accum"
	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/topk"
)

// offerRowReference is the dense drain without a seed or a block test:
// every id the row reached, in id order, against the slot's own bar and,
// under cosine, the admission rule. The seeded drain must keep exactly
// what it keeps and report the same reached count.
func offerRowReference(tks *topk.Block, slot int, scorer *document.Scorer, row []float64) (reached int) {
	bar := tks.Bars()[slot]
	outer, inner := scorer.Norms()
	if outer == nil {
		for id, sim := range row {
			if sim == 0 {
				continue
			}
			reached++
			if sim >= bar && sim > 0 {
				tks.Offer(slot, uint32(id), sim)
				bar = tks.Bars()[slot]
			}
		}
		return reached
	}
	o, norms := outer[slot], inner[:len(row)]
	limit := document.Limit(bar, o)
	for id, raw := range row {
		if raw == 0 {
			continue
		}
		reached++
		if !document.Admits(raw, limit, norms[id]) {
			continue
		}
		if sim := document.Finalize(raw, o, norms[id]); sim >= bar && sim > 0 {
			tks.Offer(slot, uint32(id), sim)
			bar = tks.Bars()[slot]
			limit = document.Limit(bar, o)
		}
	}
	return reached
}

// drainFor is a drain over scorer's norms, sized by reset, with the inner
// reciprocals built as the inner collection builds them.
func drainFor(scorer *document.Scorer, n, lambda int) *denseDrain {
	d := &denseDrain{}
	d.reset(scorer, nil, n, lambda)
	if d.outer != nil {
		d.recip = make([]float64, len(d.inner))
		for id, v := range d.inner {
			if v != 0 {
				d.recip[id] = 1 / v
			}
		}
	}
	return d
}

// drainLengths are the row lengths FuzzDenseDrain picks from beyond
// 0–70: multiples of the block size and one either side.
var drainLengths = func() (ls []int) {
	for b := 1; b <= 24; b++ {
		ls = append(ls, b*accum.MaxBlock-1, b*accum.MaxBlock, b*accum.MaxBlock+1)
	}
	return ls
}()

// FuzzDenseDrain holds the seeded dense drain to offerRowReference: the
// same matches kept, in the same order, with bit-identical similarities,
// and the same reached count, with the block maxima kernel's vector body
// and with its Go body, under raw scores and under cosine. A case draws
// a row of 0–70 ids or a multiple of 16 ± 1 up to 385, values over sixty
// binades with zeros and exact ties among them, inner norms with zeros
// among them and sometimes a zero outer norm, λ from 1 to past the number
// of blocks, and sometimes a slot that already holds matches of other
// documents, so its bar is above the seed.
func FuzzDenseDrain(f *testing.F) {
	for i := range 24 {
		f.Add(int64(i), uint16(i*13), uint8(1+i*3), i%2 == 0, uint8(i*37))
	}
	f.Add(int64(99), uint16(71+3), uint8(20), true, uint8(0xff))
	f.Add(int64(7), uint16(71+47), uint8(200), false, uint8(0x10))
	f.Fuzz(func(t *testing.T, seed int64, length uint16, lambda8 uint8, cosine bool, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		n := int(length) % (71 + len(drainLengths))
		if n > 70 {
			n = drainLengths[n-71]
		}
		lambda := 1 + int(lambda8)%(accum.MaxBlocks(n)+3)
		ties := []float64{1, 3, 0.5}[:1+int(flags)%3]
		draw := func(spread int) float64 {
			switch v := r.Intn(8); {
			case v < int(flags>>5)%4:
				return 0
			case v < 5 && flags&0x10 != 0:
				return ties[r.Intn(len(ties))] // exact ties, at the bar among them
			}
			return math.Ldexp(0.5+r.Float64()/2, r.Intn(2*spread+1)-spread)
		}
		row := make([]float64, n)
		for i := range row {
			row[i] = draw(30)
		}
		scorer := rawScorer(t)
		if cosine {
			outer := []float64{draw(10), draw(10)}
			if flags&0x08 != 0 {
				outer[1] = 0
			}
			inner := make([]float64, n)
			for i := range inner {
				inner[i] = draw(10)
			}
			var err error
			if scorer, err = document.NewScorer(document.Cosine, nil, outer, inner); err != nil {
				t.Fatal(err)
			}
		}
		// Slot 1 is drained; a prefilled one first keeps matches of ids
		// past the row.
		var prior []topk.Match
		if flags&0x04 != 0 {
			for i := range 1 + r.Intn(lambda+1) {
				prior = append(prior, topk.Match{Doc: uint32(n + i), Sim: draw(20)})
			}
		}
		fill := func(tks *topk.Block) {
			tks.Reset(2, lambda, nil)
			for _, m := range prior {
				tks.Offer(1, m.Doc, m.Sim)
			}
		}
		var want topk.Block
		fill(&want)
		wantReached := offerRowReference(&want, 1, scorer, row)
		for _, on := range []bool{true, false} {
			was := setColumns(on)
			var got topk.Block
			fill(&got)
			d := drainFor(scorer, n, lambda)
			reached := d.offer(&got, 1, row)
			setColumns(was)
			if reached != wantReached {
				t.Fatalf("n %d, λ %d, cosine %v, kernel %v: reached %d, the reference %d", n, lambda, cosine, on, reached, wantReached)
			}
			if err := sameSlots(&got, &want); err != nil {
				t.Fatalf("n %d, λ %d, cosine %v, kernel %v: %v", n, lambda, cosine, on, err)
			}
			if got.Entries() > want.Entries() {
				t.Fatalf("n %d, λ %d: the seeded drain kept %d entries, the reference %d", n, lambda, got.Entries(), want.Entries())
			}
		}
	})
}

// sameSlots reports the first difference between two blocks' kept
// matches and bars. It flushes the reference twice: a second Flush must
// hand out the rows the first did.
func sameSlots(got, want *topk.Block) error {
	var rows [3][][]topk.Match
	for i, b := range []*topk.Block{got, want, want} {
		b.Flush(len(b.Bars()), func(_ int, kept []topk.Match) { rows[i] = append(rows[i], kept) })
	}
	same := func(a, b topk.Match) bool {
		return a.Doc == b.Doc && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
	}
	for slot := range rows[1] {
		g, w := rows[0][slot], rows[1][slot]
		if !slices.EqualFunc(g, w, same) {
			return fmt.Errorf("slot %d keeps %v, the reference %v", slot, g, w)
		}
		if again := rows[2][slot]; !slices.EqualFunc(again, w, same) {
			return fmt.Errorf("slot %d: the reference's second Flush hands out %v, its first %v", slot, again, w)
		}
		if gb, wb := got.Bars()[slot], want.Bars()[slot]; math.Float64bits(gb) != math.Float64bits(wb) {
			return fmt.Errorf("slot %d bar %v, the reference %v", slot, gb, wb)
		}
	}
	return nil
}

// TestDenseDrainAllocatesNothing: a drain reset for rows its buffers
// already hold allocates nothing, and nor do its offers, under raw scores
// and under cosine.
func TestDenseDrainAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n, lambda = 1000, 20
	row, norms := make([]float64, n), make([]float64, n)
	for i := range row {
		row[i], norms[i] = float64(r.Intn(4)), 1+r.Float64()
	}
	cosine, err := document.NewScorer(document.Cosine, nil, []float64{3}, norms)
	if err != nil {
		t.Fatal(err)
	}
	raw := rawScorer(t)
	var tks topk.Block
	slab := tks.Reset(1, lambda, nil)
	d := drainFor(raw, n, lambda)
	cos := drainFor(cosine, n, lambda)
	for _, c := range []struct {
		name  string
		drain func()
	}{
		{"raw", func() {
			d.reset(raw, nil, n, lambda)
			d.offer(&tks, 0, row)
		}},
		{"cosine", func() { cos.offer(&tks, 0, row) }},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			tks.Reset(1, lambda, slab)
			c.drain()
		})
		if allocs != 0 {
			t.Errorf("%s: a warm drain allocates %.0f objects per row, want 0", c.name, allocs)
		}
	}
}

// TestKthLargest holds the selection to a sort, ties and zeros included.
func TestKthLargest(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 500 {
		vals := make([]float64, 1+r.Intn(40))
		for i := range vals {
			vals[i] = float64(r.Intn(6))
		}
		k := 1 + r.Intn(len(vals))
		sorted := slices.Clone(vals)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		if got := kthLargest(vals, make([]float64, k)); got != sorted[k-1] {
			t.Fatalf("the %d-th largest of %v is %v, kthLargest says %v", k, vals, sorted[k-1], got)
		}
	}
}

// drainRows records dense rows shaped as a join's: the raw scores of the
// first outer documents of a WSJ/scale pair (C1 from seed 1, C2 from seed
// 2) against every inner document, under tf-idf the idf-weighted ones,
// and a cosine scorer over the documents' norms.
func drainRows(tb testing.TB, scale int64, w document.Weighting, rows int) ([][]float64, *document.Scorer) {
	tb.Helper()
	p := corpus.WSJ.Scaled(scale)
	docs := func(seed int64, n int) []document.Document {
		g, err := corpus.NewGenerator(p, seed)
		if err != nil {
			tb.Fatal(err)
		}
		out := make([]document.Document, n)
		for i := range out {
			out[i] = *g.Document(uint32(i))
		}
		return out
	}
	inner, outer := docs(1, int(p.NumDocs)), docs(2, rows)
	var idf []float64
	if w == document.TFIDF {
		df := map[uint32]int64{}
		var span uint32
		for _, d := range inner {
			for _, c := range d.Cells {
				df[c.Term]++
				span = max(span, c.Term+1)
			}
		}
		idf = make([]float64, span)
		for term, n := range df {
			idf[term] = document.IDF(int64(len(inner)), n)
		}
	}
	innerNorms, outerNorms := make([]float64, len(inner)), make([]float64, len(outer))
	for i := range inner {
		innerNorms[i] = inner[i].Norm()
	}
	for i := range outer {
		outerNorms[i] = outer[i].Norm()
	}
	raw, err := document.NewScorer(w, idf, nil, nil)
	if w == document.Cosine {
		raw, err = document.NewScorer(document.RawTF, nil, nil, nil)
	}
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]float64, len(outer))
	for o := range outer {
		out[o] = make([]float64, len(inner))
		for i := range inner {
			out[o][i] = raw.Score(&outer[o], &inner[i])
		}
	}
	scorer := raw
	if w == document.Cosine {
		if scorer, err = document.NewScorer(document.Cosine, nil, outerNorms, innerNorms); err != nil {
			tb.Fatal(err)
		}
	}
	return out, scorer
}

// BenchmarkDenseDrain times the dense drain per row, λ = 20, on rows
// recorded from a VVM-shaped join (WSJ/64: 1 542 inner ids, cosine) and an
// HVNL-shaped one (WSJ/16: 6 171 inner ids, tf-idf): the seeded drain
// against offerRowReference, each with the block maxima kernel's vector
// body and with its Go body, the cost on a CPU without AVX2. Each row
// drains into an empty slot. It must allocate nothing.
//
//	go test -run '^$' -bench DenseDrain -benchmem ./internal/core
func BenchmarkDenseDrain(b *testing.B) {
	for _, sh := range []struct {
		name  string
		scale int64
		w     document.Weighting
	}{{"vvm-cosine", 64, document.Cosine}, {"hvnl-tfidf", 16, document.TFIDF}} {
		rows, scorer := drainRows(b, sh.scale, sh.w, 16)
		const lambda = 20
		d := drainFor(scorer, len(rows[0]), lambda)
		var tks topk.Block
		slab := tks.Reset(len(rows), lambda, nil)
		for _, seeded := range []bool{true, false} {
			for _, on := range []bool{true, false} {
				name := fmt.Sprintf("%s/seeded=%v/vector=%v", sh.name, seeded, on)
				b.Run(name, func(b *testing.B) {
					was := setColumns(on)
					defer setColumns(was)
					b.ReportAllocs()
					entries := int64(0)
					for i := 0; i < b.N; i++ {
						slot := i % len(rows)
						if slot == 0 {
							entries += tks.Entries()
							tks.Reset(len(rows), lambda, slab)
						}
						if seeded {
							d.offer(&tks, slot, rows[slot])
						} else {
							offerRowReference(&tks, slot, scorer, rows[slot])
						}
					}
					b.ReportMetric(float64(entries+tks.Entries())/float64(b.N), "entries/row")
				})
			}
		}
	}
}
