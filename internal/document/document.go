// Package document implements the vector representation of documents used
// throughout the paper.
//
// A document is a list of d-cells (term number, occurrence count) sorted by
// ascending term number. The similarity between two documents D1 and D2
// with common terms t1..tn occurring u1..un times in D1 and v1..vn times in
// D2 is Σ ui·vi (the paper's base similarity). The package also provides
// the "more realistic" variants the paper mentions: cosine normalization by
// the document norms and inverse-document-frequency term weighting, both of
// which can be layered on top of the raw dot product exactly as the paper
// prescribes (norms pre-computed and divided in at the end; idf weights
// pre-computed per term and folded into the products).
package document

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"textjoin/internal/codec"
)

// Cell is one (term, occurrences) component of a document vector.
type Cell struct {
	Term   uint32
	Weight uint16
}

// Document is a term vector: cells sorted by strictly ascending term
// number, plus the document's number within its collection.
type Document struct {
	ID    uint32
	Cells []Cell
}

// Terms returns the number of distinct terms in the document (the paper's
// per-document K contribution).
func (d *Document) Terms() int { return len(d.Cells) }

// EncodedSize returns the packed on-disk size of the document in bytes.
func (d *Document) EncodedSize() int64 { return codec.EncodedRecordSize(len(d.Cells)) }

// Weight returns the occurrence count of term in d, or 0 when absent,
// using binary search over the sorted cells.
func (d *Document) Weight(term uint32) uint16 {
	i := sort.Search(len(d.Cells), func(i int) bool { return d.Cells[i].Term >= term })
	if i < len(d.Cells) && d.Cells[i].Term == term {
		return d.Cells[i].Weight
	}
	return 0
}

// Norm returns the Euclidean norm of the raw occurrence vector, used for
// cosine normalization. The paper pre-computes and stores norms; callers
// should do the same rather than recompute per comparison.
func (d *Document) Norm() float64 {
	var sum float64
	for _, c := range d.Cells {
		w := float64(c.Weight)
		sum += w * w
	}
	return math.Sqrt(sum)
}

// Validate checks the invariants every document must satisfy before being
// stored: sorted, strictly ascending cells with representable numbers.
func (d *Document) Validate() error {
	if d.ID > codec.MaxNumber {
		return fmt.Errorf("document %d: id exceeds %d", d.ID, codec.MaxNumber)
	}
	prev := int64(-1)
	for i, c := range d.Cells {
		if c.Term > codec.MaxNumber {
			return fmt.Errorf("document %d: cell %d term %d exceeds %d", d.ID, i, c.Term, codec.MaxNumber)
		}
		if int64(c.Term) <= prev {
			return fmt.Errorf("document %d: cells not strictly ascending at %d (term %d after %d)", d.ID, i, c.Term, prev)
		}
		prev = int64(c.Term)
	}
	return nil
}

// New builds a Document from an unsorted bag of (term, count) pairs,
// merging duplicate terms by summing their counts (saturating at the
// on-disk maximum).
func New(id uint32, counts map[uint32]int) *Document {
	cells := make([]Cell, 0, len(counts))
	for term, n := range counts {
		if n <= 0 {
			continue
		}
		cells = append(cells, Cell{Term: term, Weight: codec.ClampWeight(n)})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Term < cells[j].Term })
	return &Document{ID: id, Cells: cells}
}

// FromRecord converts a decoded storage record into a Document.
func FromRecord(r codec.Record) *Document {
	cells := make([]Cell, len(r.Cells))
	for i, c := range r.Cells {
		cells[i] = Cell{Term: c.Number, Weight: c.Weight}
	}
	return &Document{ID: r.Number, Cells: cells}
}

// Clone returns a deep copy of d whose cells do not alias d's. Reuse-style
// iterators (collection.Scanner.NextReuse) overwrite the yielded document
// on the next call; callers that retain documents across calls clone them
// first.
func (d *Document) Clone() *Document {
	cells := make([]Cell, len(d.Cells))
	copy(cells, d.Cells)
	return &Document{ID: d.ID, Cells: cells}
}

// DecodeInto decodes one packed record from the start of b directly into
// d, reusing d's cell capacity so a steady-state decode loop allocates
// nothing. It is codec.DecodeRecordInto, the one cell unpack, decoding
// into d's cells seen as codec cells: Cell and codec.Cell share one
// layout (TestCellLayoutMatchesCodec). On error d is left with zero cells.
// Returns the number of bytes consumed.
func DecodeInto(d *Document, b []byte) (int64, error) {
	number, cells, size, err := codec.DecodeRecordInto(b, asCodecCells(d.Cells[:0]))
	d.Cells = asCells(cells)
	if err != nil {
		return 0, fmt.Errorf("document: %w", err)
	}
	d.ID = number
	return size, nil
}

// asCodecCells views cells, capacity included, as codec cells.
func asCodecCells(cells []Cell) []codec.Cell {
	return unsafe.Slice((*codec.Cell)(unsafe.Pointer(unsafe.SliceData(cells))), cap(cells))[:len(cells)]
}

// asCells views codec cells, capacity included, as document cells.
func asCells(cells []codec.Cell) []Cell {
	return unsafe.Slice((*Cell)(unsafe.Pointer(unsafe.SliceData(cells))), cap(cells))[:len(cells)]
}

// Similarity computes the paper's base similarity Σ ui·vi over the common
// terms of a and b with a linear merge of the two sorted cell lists.
func Similarity(a, b *Document) float64 {
	return DotCells(a.Cells, b.Cells)
}

// DotCells merges two sorted cell slices and accumulates the products of
// the weights of common terms.
func DotCells(a, b []Cell) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			i++
		case a[i].Term > b[j].Term:
			j++
		default:
			sum += float64(a[i].Weight) * float64(b[j].Weight)
			i++
			j++
		}
	}
	return sum
}

// CommonTerms returns the number of terms shared by a and b.
func CommonTerms(a, b *Document) int {
	n := 0
	i, j := 0, 0
	for i < len(a.Cells) && j < len(b.Cells) {
		switch {
		case a.Cells[i].Term < b.Cells[j].Term:
			i++
		case a.Cells[i].Term > b.Cells[j].Term:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Weighting selects the similarity function applied by a join.
type Weighting int

const (
	// RawTF is the paper's base similarity: the dot product of
	// occurrence counts.
	RawTF Weighting = iota
	// Cosine divides the dot product by the product of the two
	// pre-computed document norms.
	Cosine
	// TFIDF multiplies each term product by the squared inverse document
	// frequency weight of the term (idf of the inner collection, as the
	// paper stores idf in the inverted list heads).
	TFIDF
)

// String names the weighting for logs and flags.
func (w Weighting) String() string {
	switch w {
	case RawTF:
		return "raw"
	case Cosine:
		return "cosine"
	case TFIDF:
		return "tfidf"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// ParseWeighting converts a flag string to a Weighting.
func ParseWeighting(s string) (Weighting, error) {
	switch s {
	case "raw", "":
		return RawTF, nil
	case "cosine":
		return Cosine, nil
	case "tfidf":
		return TFIDF, nil
	}
	return RawTF, fmt.Errorf("document: unknown weighting %q", s)
}

// IDF returns the inverse document frequency weight log(1 + N/df) for a
// term with document frequency df in a collection of n documents. A zero
// document frequency yields 0 so that terms absent from the collection
// contribute nothing.
func IDF(n int64, df int64) float64 {
	if df <= 0 || n <= 0 {
		return 0
	}
	return math.Log(1 + float64(n)/float64(df))
}

// Scorer computes similarities under a Weighting with pre-computed
// statistics, following the paper's advice to pre-compute norms and idf
// weights rather than recompute them per pair.
type Scorer struct {
	weighting Weighting
	// idf is indexed by term number, 0 past its end (TFIDF only).
	idf []float64
	// outerNorms is indexed by outer rank — a document's place in the order
	// its source yields the outer documents, which is the row a join keeps
	// for it — and innerNorms by inner document id, which is contiguous
	// (Cosine only).
	outerNorms, innerNorms []float64
}

// rawScorer is every raw scorer: it holds no table, and a scorer is never
// modified, so a join under raw weighting allocates none.
var rawScorer = &Scorer{weighting: RawTF}

// NewScorer builds a scorer for the given weighting. idf, indexed by term
// number, may be nil unless the weighting is TFIDF; the norms may be nil
// unless it is Cosine: outerNorms by outer rank, innerNorms by inner id,
// one for every inner document a join can reach. The scorer holds the
// tables it is given; callers must not modify them.
func NewScorer(w Weighting, idf, outerNorms, innerNorms []float64) (*Scorer, error) {
	if w == RawTF {
		return rawScorer, nil
	}
	s := &Scorer{weighting: w, idf: idf}
	switch w {
	case Cosine:
		if outerNorms == nil || innerNorms == nil {
			return nil, fmt.Errorf("document: cosine weighting requires pre-computed norms")
		}
		s.outerNorms, s.innerNorms = outerNorms, innerNorms
	case TFIDF:
		if idf == nil {
			return nil, fmt.Errorf("document: tfidf weighting requires idf weights")
		}
	default:
		return nil, fmt.Errorf("document: unknown weighting %v", w)
	}
	return s, nil
}

// Weighting reports the scorer's weighting.
func (s *Scorer) Weighting() Weighting { return s.weighting }

// TermFactor returns the multiplicative factor applied to the product of
// occurrence counts for a given term (1 for raw and cosine, idf² for
// tf-idf). Algorithms that accumulate term by term (HVNL, VVM) apply it as
// they accumulate.
func (s *Scorer) TermFactor(term uint32) float64 {
	if s.weighting != TFIDF {
		return 1
	}
	if int(term) >= len(s.idf) {
		return 0
	}
	w := s.idf[term]
	return w * w
}

// Norms returns a cosine scorer's norm tables, the outer one by rank and
// the inner one by id, and nil tables under any other weighting, where a
// raw score is the similarity itself. A drain takes them once, before its
// loop, and finishes each cosine pair through the admission rule.
func (s *Scorer) Norms() (outer, inner []float64) { return s.outerNorms, s.innerNorms }

// The cosine admission rule. A drain offers a pair to a tracker slot whose
// bar is bar; the pair's similarity is raw/(o·nᵢ), o the outer and nᵢ the
// inner document's norm, and the slot keeps it only if it is ≥ bar. The
// rule decides most pairs without dividing: a pair with
//
//	raw < bar·(1−2⁻⁴⁸)·o·nᵢ
//
// computed as three float64 products (Limit, then Admits), finalizes below
// bar, so the drain skips it; every other pair is finished by Finalize and
// meets the slot's own test. The skip is exact: each product and the
// division round by at most 2⁻⁵³ relative, and a correctly rounded
// division is monotone, so a skipped pair's quotient lies at least
// 2⁻⁴⁸ − 4·2⁻⁵³ > 2⁻⁴⁹ relative below bar — many ulps — and rounds below
// it. That holds while the products stay in float64's normal range, which
// a join's norms (≥ 1 for a document with a cell) and bars (a kept
// similarity, ≥ 1/(o·nᵢ)) keep them far inside. The rule only certifies a
// rejection against the bar it was given, so it is valid in any offer
// order; after an offer changes the bar, take a new Limit. A zero norm
// makes the limit 0: the pair is admitted and Finalize returns 0, which no
// slot keeps. FuzzCosineAdmission holds the rule to Finalize.
const admitSlack = 1 - 0x1p-48

// Limit is the part of the admission bound a slot fixes: its bar times
// (1−2⁻⁴⁸) times the outer norm. A drain holds it until the slot's bar
// moves.
func Limit(bar, outerNorm float64) float64 { return bar * admitSlack * outerNorm }

// Admits reports whether a pair of raw score raw and inner norm innerNorm
// can reach the bar limit was taken for. A pair it refuses finalizes below
// that bar; a pair it admits still meets the slot's own test.
func Admits(raw, limit, innerNorm float64) bool { return raw >= limit*innerNorm }

// Admit applies the rule to one pair offered to a slot whose bar is bar:
// it returns 0, which no slot keeps, for a pair the rule refuses, and the
// pair's similarity (Finalize) for one it admits. A drain that offers many
// pairs to one slot holds Limit instead, until the bar moves.
func Admit(raw, bar, outerNorm, innerNorm float64) float64 {
	if !Admits(raw, Limit(bar, outerNorm), innerNorm) {
		return 0
	}
	return Finalize(raw, outerNorm, innerNorm)
}

// Finalize is the cosine similarity of a pair: its raw score divided by
// the product of the two norms, or 0 when either norm is 0. It is the one
// division of a cosine join.
func Finalize(raw, outerNorm, innerNorm float64) float64 {
	if outerNorm == 0 || innerNorm == 0 {
		return 0
	}
	return raw / (outerNorm * innerNorm)
}

// Score computes the full similarity of two documents under the scorer
// with one merge walk: the reference implementation, whose summation order
// and product association every join is held to by its tests. Under cosine
// it divides by the documents' own norms, which are the pre-computed ones:
// a collection stores Norm of each document it holds. No join calls it.
func (s *Scorer) Score(outer, inner *Document) float64 {
	var raw float64
	i, j := 0, 0
	for i < len(outer.Cells) && j < len(inner.Cells) {
		oc, ic := outer.Cells[i], inner.Cells[j]
		switch {
		case oc.Term < ic.Term:
			i++
		case oc.Term > ic.Term:
			j++
		default:
			raw += float64(oc.Weight) * float64(ic.Weight) * s.TermFactor(oc.Term)
			i++
			j++
		}
	}
	if s.weighting != Cosine {
		return raw
	}
	return Finalize(raw, outer.Norm(), inner.Norm())
}
