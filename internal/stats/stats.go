// Package stats measures the join statistics the paper's cost model
// consumes — the term-overlap probabilities p and q and the non-zero
// similarity fraction δ — from built collections, instead of assuming
// them.
//
// The paper's simulation derives q from a three-band formula over T1/T2
// and fixes δ = 0.1; an IR system, however, has the document-frequency
// tables in memory and can measure both quantities exactly (q) or
// estimate them well (δ) at negligible cost. The integrated planner uses
// these measured values, which is the difference between simulating the
// paper and running it.
package stats

import (
	"io"
	"math"

	"textjoin/internal/collection"
	"textjoin/internal/document"
)

// OverlapQ returns the measured probability that a distinct term of the
// outer collection also appears in the inner collection: the paper's q
// (and, with the arguments swapped, p). Both document-frequency tables are
// memory-resident, so the measurement is free of I/O.
func OverlapQ(inner, outer *collection.Collection) float64 {
	return OverlapQReader(inner, outer)
}

// OverlapQReader measures q for any outer document source (collection,
// subset or memory-resident batch) against the inner collection: the
// share of the source's T distinct terms that the inner collection holds.
// It walks the inner document-frequency table instead of listing the
// source's terms, so a planner may call it per join without allocating.
func OverlapQReader(inner *collection.Collection, outer collection.Reader) float64 {
	distinct := outer.BaseStats().T
	if distinct == 0 {
		return 0
	}
	shared := 0
	for term := range uint32(inner.TermSpan()) {
		if inner.DF(term) > 0 && outer.DF(term) > 0 {
			shared++
		}
	}
	return float64(shared) / float64(distinct)
}

// Delta estimates δ, the fraction of document pairs with non-zero
// similarity, from the document-frequency tables alone: under term
// independence, a random pair (d1, d2) shares term t with probability
// (df1(t)/N1)·(df2(t)/N2), so
//
//	δ ≈ 1 − Π over common terms t of (1 − df1(t)·df2(t)/(N1·N2)).
//
// The product is evaluated in log space for stability, summed in ascending
// term order so that the estimate is the same to the last bit on every
// call. No documents are read and nothing is allocated: the walk is over
// the two term-indexed document-frequency tables, so a planner may call it
// per join.
func Delta(c1, c2 *collection.Collection) float64 {
	n1, n2 := c1.NumDocs(), c2.NumDocs()
	if n1 == 0 || n2 == 0 {
		return 0
	}
	logNone := 0.0
	total := float64(n1) * float64(n2)
	for term := range uint32(min(c1.TermSpan(), c2.TermSpan())) {
		df1, df2 := c1.DF(term), c2.DF(term)
		if df1 == 0 || df2 == 0 {
			continue
		}
		p := float64(df1) * float64(df2) / total
		if p >= 1 {
			return 1
		}
		logNone += math.Log1p(-p)
	}
	return 1 - math.Exp(logNone)
}

// DeltaExact counts the non-zero similarity fraction exactly by streaming
// both collections (O(N1·N2) similarity tests); used to validate Delta in
// tests and tractable only for small collections.
func DeltaExact(c1, c2 *collection.Collection) (float64, error) {
	docs1, err := loadAll(c1)
	if err != nil {
		return 0, err
	}
	docs2, err := loadAll(c2)
	if err != nil {
		return 0, err
	}
	if len(docs1) == 0 || len(docs2) == 0 {
		return 0, nil
	}
	nonZero := 0
	for _, d1 := range docs1 {
		terms := make(map[uint32]bool, len(d1.Cells))
		for _, c := range d1.Cells {
			terms[c.Term] = true
		}
		for _, d2 := range docs2 {
			for _, c := range d2.Cells {
				if terms[c.Term] {
					nonZero++
					break
				}
			}
		}
	}
	return float64(nonZero) / (float64(len(docs1)) * float64(len(docs2))), nil
}

func loadAll(c *collection.Collection) ([]*document.Document, error) {
	var docs []*document.Document
	sc := c.Scan()
	for {
		d, err := sc.Next()
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
}
