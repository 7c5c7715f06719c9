package collection

import (
	"io"
	"sort"

	"textjoin/internal/codec"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// Batch is a memory-resident set of query documents used as the outer
// side of a join — the paper's "processing of a set of queries against a
// document collection in batch".
//
// The paper points out two properties of such batches, both modeled here:
// statistics "are not available unless they are collected explicitly"
// (Batch collects its own document frequencies at construction, which is
// cheap since the batch is already in memory), and "special data
// structures commonly associated with a document collection such as an
// inverted file is unlikely to be available for the batch" — a Batch has
// no storage, so VVM (which needs the outer inverted file) is
// inapplicable, exactly the applicability distinction the paper draws.
// Reading a batch costs no I/O: BaseStats reports zero sizes, which the
// cost model interprets as a free outer scan.
type Batch struct {
	name  string
	docs  []*document.Document
	df    map[uint32]int64
	norms []float64 // by rank
	cells int64
	terms int64
}

var _ Reader = (*Batch)(nil)

// NewBatch wraps query documents as a join source. Documents keep their
// ids (which must be unique); they need not be dense.
func NewBatch(name string, docs []*document.Document) (*Batch, error) {
	b := &Batch{
		name:  name,
		docs:  docs,
		df:    make(map[uint32]int64),
		norms: make([]float64, 0, len(docs)),
	}
	seen := make(map[uint32]bool, len(docs))
	for _, d := range docs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if seen[d.ID] {
			return nil, ErrDuplicateDoc
		}
		seen[d.ID] = true
		for _, c := range d.Cells {
			b.df[c.Term]++
		}
		b.norms = append(b.norms, d.Norm())
		b.cells += int64(len(d.Cells))
	}
	b.terms = int64(len(b.df))
	return b, nil
}

// Name identifies the batch.
func (b *Batch) Name() string { return b.name }

// NumDocs returns the number of queries.
func (b *Batch) NumDocs() int64 { return int64(len(b.docs)) }

// DocSize returns the packed bytes the i-th query would occupy and its
// cell count (Reader interface).
func (b *Batch) DocSize(i int) (bytes int64, cells int) {
	return codec.EncodedRecordSize(len(b.docs[i].Cells)), len(b.docs[i].Cells)
}

// Documents iterates the queries in slice order, costing no I/O.
func (b *Batch) Documents() DocIterator { return &batchIterator{b: b} }

type batchIterator struct {
	b    *Batch
	next int
}

func (it *batchIterator) Next() (*document.Document, error) {
	if it.next >= len(it.b.docs) {
		return nil, io.EOF
	}
	d := it.b.docs[it.next]
	it.next++
	return d, nil
}

// NextReuse is Next: batch documents are memory-resident and stable, so
// the reuse path yields them without any copy.
func (it *batchIterator) NextReuse() (*document.Document, error) { return it.Next() }

// Base returns nil: a batch has no backing collection.
func (b *Batch) Base() *Collection { return nil }

// File returns nil: a batch is memory-resident.
func (b *Batch) File() *iosim.File { return nil }

// DF returns the document frequency of term within the batch itself (the
// explicitly collected statistics the paper mentions).
func (b *Batch) DF(term uint32) int64 { return b.df[term] }

// Norms returns the queries' pre-computed norms in slice order: by rank,
// since ids need not be dense.
func (b *Batch) Norms() []float64 { return b.norms }

// Terms returns the distinct terms of the batch in ascending order.
func (b *Batch) Terms() []uint32 {
	terms := make([]uint32, 0, len(b.df))
	for t := range b.df {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	return terms
}

// BaseStats reports the batch's measured statistics with zero storage
// sizes: scanning a memory-resident batch is free.
func (b *Batch) BaseStats() Stats {
	st := Stats{N: int64(len(b.docs)), T: b.terms, TotalCells: b.cells}
	if st.N > 0 {
		st.K = float64(b.cells) / float64(st.N)
	}
	return st
}
