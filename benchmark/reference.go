package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"textjoin"
)

// The reference is a brute-force top-λ join written here, so that it
// shares no scoring or accumulation code with the program under test:
// its own merge dot product, its own norms and its own idf weights.

type wcell struct {
	term uint32
	w    float64
}

type wdoc struct {
	id    uint32
	cells []wcell
	norm  float64
}

func readDocs(r textjoin.Reader) ([]*textjoin.Document, error) {
	var out []*textjoin.Document
	it := r.Documents()
	for {
		d, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
}

// weigh converts documents to float cells, multiplying each weight by
// factor(term) when factor is not nil.
func weigh(docs []*textjoin.Document, factor func(term uint32) float64) []wdoc {
	out := make([]wdoc, len(docs))
	for i, d := range docs {
		cells := make([]wcell, len(d.Cells))
		var sq float64
		for j, c := range d.Cells {
			w := float64(c.Weight)
			sq += w * w
			if factor != nil {
				w *= factor(c.Term)
			}
			cells[j] = wcell{c.Term, w}
		}
		out[i] = wdoc{id: d.ID, cells: cells, norm: math.Sqrt(sq)}
	}
	return out
}

func dot(a, b []wcell) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].term < b[j].term:
			i++
		case a[i].term > b[j].term:
			j++
		default:
			s += a[i].w * b[j].w
			i++
			j++
		}
	}
	return s
}

// truth is the brute-force answer for one (outer, inner, weighting, λ):
// per outer document, its λ largest positive similarities.
type truth struct {
	outer, inner []wdoc
	innerAt      map[uint32]int
	cosine       bool
	lambda       int
	top          [][]float64 // descending, at most λ, positive only
}

func (t *truth) sim(o, i *wdoc) float64 {
	s := dot(o.cells, i.cells)
	if t.cosine {
		if o.norm == 0 || i.norm == 0 {
			return 0
		}
		return s / (o.norm * i.norm)
	}
	return s
}

func bruteForce(outer textjoin.Reader, inner *textjoin.Collection, w textjoin.Weighting, lambda int) (*truth, error) {
	od, err := readDocs(outer)
	if err != nil {
		return nil, err
	}
	id, err := readDocs(inner)
	if err != nil {
		return nil, err
	}
	t := &truth{cosine: w == textjoin.Cosine, lambda: lambda, innerAt: make(map[uint32]int, len(id))}
	var factor func(uint32) float64
	if w == textjoin.TFIDF {
		n := float64(inner.NumDocs())
		factor = func(term uint32) float64 {
			df := inner.DF(term)
			if df <= 0 {
				return 0
			}
			idf := math.Log(1 + n/float64(df))
			return idf * idf
		}
	}
	t.outer, t.inner = weigh(od, factor), weigh(id, nil)
	for i := range t.inner {
		t.innerAt[t.inner[i].id] = i
	}
	// One goroutine per processor, each with its own rows.
	t.top = make([][]float64, len(t.outer))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for first := 0; first < workers; first++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sims := make([]float64, 0, len(t.inner))
			for oi := first; oi < len(t.outer); oi += workers {
				sims = sims[:0]
				for ii := range t.inner {
					if s := t.sim(&t.outer[oi], &t.inner[ii]); s > 0 {
						sims = append(sims, s)
					}
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(sims)))
				t.top[oi] = append([]float64(nil), sims[:min(lambda, len(sims))]...)
			}
		}()
	}
	wg.Wait()
	return t, nil
}

// verdict is the outcome of checking one result set against the truth.
// hit of want true top-λ pairs were returned; bad is empty when every
// returned pair is right (and, for an exact join, nothing is missing).
type verdict struct {
	hit, want int
	bad       string
}

func (v verdict) ok() bool { return v.bad == "" }

const simTol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= simTol*math.Max(1, math.Abs(b)) }

// check compares results to the truth. Every returned similarity must
// equal the brute-force one and rows must be best first without
// duplicates; an exact join must also return the whole top-λ. Pairs tied
// at the λ-th similarity may be exchanged, which summation order in the
// last bit can cause without the answer being wrong.
func (t *truth) check(results []textjoin.Result, exact bool) verdict {
	var v verdict
	if len(results) != len(t.outer) {
		v.bad = fmt.Sprintf("%d rows, want %d", len(results), len(t.outer))
		return v
	}
	for r, row := range results {
		o := &t.outer[r]
		ref := t.top[r]
		v.want += len(ref)
		if row.Outer != o.id {
			v.bad = fmt.Sprintf("row %d is outer %d, want %d", r, row.Outer, o.id)
			return v
		}
		if len(row.Matches) > t.lambda || exact && len(row.Matches) != len(ref) {
			v.bad = fmt.Sprintf("outer %d has %d matches, want %d", o.id, len(row.Matches), len(ref))
			return v
		}
		seen := make(map[uint32]bool, len(row.Matches))
		for j, m := range row.Matches {
			at, known := t.innerAt[m.Doc]
			if !known || seen[m.Doc] {
				v.bad = fmt.Sprintf("outer %d match %d: unknown or repeated inner %d", o.id, j, m.Doc)
				return v
			}
			seen[m.Doc] = true
			if want := t.sim(o, &t.inner[at]); !near(m.Sim, want) {
				v.bad = fmt.Sprintf("outer %d inner %d: sim %v, want %v", o.id, m.Doc, m.Sim, want)
				return v
			}
			if j > 0 && m.Sim > row.Matches[j-1].Sim && !near(m.Sim, row.Matches[j-1].Sim) {
				v.bad = fmt.Sprintf("outer %d: matches not best first at %d", o.id, j)
				return v
			}
			if exact && !near(m.Sim, ref[j]) {
				v.bad = fmt.Sprintf("outer %d rank %d: sim %v, want %v", o.id, j, m.Sim, ref[j])
				return v
			}
			if len(ref) > 0 && (m.Sim >= ref[len(ref)-1] || near(m.Sim, ref[len(ref)-1])) {
				v.hit++
			}
		}
	}
	return v
}

// resultHash is an FNV-1a digest of a result set, so that repeated
// identical operations are checked against the truth once and by digest
// afterwards.
func resultHash(results []textjoin.Result) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	put32 := func(b []byte, v uint32) { b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24) }
	for _, res := range results {
		put32(buf[0:], res.Outer)
		put32(buf[4:], uint32(len(res.Matches)))
		h.Write(buf[:8])
		for _, m := range res.Matches {
			bits := math.Float64bits(m.Sim)
			put32(buf[0:], m.Doc)
			put32(buf[4:], uint32(bits))
			put32(buf[8:], uint32(bits>>32))
			h.Write(buf[:12])
		}
	}
	return h.Sum64()
}
