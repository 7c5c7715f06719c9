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
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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
// nothing. It is the document-side twin of codec.DecodeRecordInto, with
// the same loop: one bounds check against the full record size up front,
// four cells per step from a codec.GroupWindow-byte window, a one-cell
// tail, and strict ascent kept branch-free in the sign bit of ok. On error
// d is left with zero cells. Returns the number of bytes consumed.
func DecodeInto(d *Document, b []byte) (int64, error) {
	if len(b) < codec.DocHeaderSize {
		d.Cells = d.Cells[:0]
		return 0, fmt.Errorf("document: %w: need %d header bytes, have %d", codec.ErrShortBuffer, codec.DocHeaderSize, len(b))
	}
	number := codec.Uint24(b)
	count := int(codec.Uint24(b[codec.DocNumberSize:]))
	size := codec.EncodedRecordSize(count)
	if int64(len(b)) < size {
		d.Cells = d.Cells[:0]
		return 0, fmt.Errorf("document: %w: record needs %d bytes, have %d", codec.ErrShortBuffer, size, len(b))
	}
	if cap(d.Cells) < count {
		d.Cells = make([]Cell, count)
	}
	out := d.Cells[:count]
	d.Cells = out
	body := b[codec.DocHeaderSize:size:size]
	ok, prev := int32(-1), int32(-1)
	i := 0
	for ; len(body) >= codec.GroupWindow; body = body[4*codec.CellSize:] {
		w := body[:codec.GroupWindow:codec.GroupWindow]
		v0 := binary.LittleEndian.Uint64(w[0:])
		v1 := binary.LittleEndian.Uint64(w[codec.CellSize:])
		v2 := binary.LittleEndian.Uint64(w[2*codec.CellSize:])
		v3 := binary.LittleEndian.Uint64(w[3*codec.CellSize:])
		t0, t1, t2, t3 := int32(v0&codec.MaxNumber), int32(v1&codec.MaxNumber), int32(v2&codec.MaxNumber), int32(v3&codec.MaxNumber)
		ok &= (prev - t0) & (t0 - t1) & (t1 - t2) & (t2 - t3)
		prev = t3
		o := out[i : i+4 : i+4]
		o[0] = Cell{Term: uint32(t0), Weight: uint16(v0 >> 24)}
		o[1] = Cell{Term: uint32(t1), Weight: uint16(v1 >> 24)}
		o[2] = Cell{Term: uint32(t2), Weight: uint16(v2 >> 24)}
		o[3] = Cell{Term: uint32(t3), Weight: uint16(v3 >> 24)}
		i += 4
	}
	for ; len(body) >= codec.CellSize; body = body[codec.CellSize:] {
		t := int32(body[0]) | int32(body[1])<<8 | int32(body[2])<<16
		ok &= prev - t
		prev = t
		out[i] = Cell{Term: uint32(t), Weight: uint16(body[3]) | uint16(body[4])<<8}
		i++
	}
	if ok >= 0 {
		d.Cells = d.Cells[:0]
		return 0, fmt.Errorf("document: %w: cells not strictly ascending", codec.ErrCorrupt)
	}
	d.ID = number
	return size, nil
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
	// outerNorms maps outer document id -> norm; innerNorms is indexed by
	// inner document id, which is contiguous (Cosine only).
	outerNorms map[uint32]float64
	innerNorms []float64
}

// NewScorer builds a scorer for the given weighting. idf, indexed by term
// number, may be nil unless the weighting is TFIDF; the norms may be nil
// unless it is Cosine. The scorer holds the tables it is given; callers
// must not modify them.
func NewScorer(w Weighting, idf []float64, outerNorms map[uint32]float64, innerNorms []float64) (*Scorer, error) {
	s := &Scorer{weighting: w, idf: idf, outerNorms: outerNorms, innerNorms: innerNorms}
	switch w {
	case RawTF:
	case Cosine:
		if outerNorms == nil || innerNorms == nil {
			return nil, fmt.Errorf("document: cosine weighting requires pre-computed norms")
		}
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

// Finalize applies the per-pair normalization to an accumulated raw score
// (division by the norms for cosine; identity otherwise). outer is the C2
// document id, inner the C1 document id.
func (s *Scorer) Finalize(outer, inner uint32, raw float64) float64 {
	return s.Row(outer).Finalize(inner, raw)
}

// Row is the scorer fixed to one outer document, so a join finalizing many
// pairs of the same outer document looks its norm up once.
type Row struct {
	cosine     bool
	outerNorm  float64
	innerNorms []float64
}

// Row returns the scorer fixed to outer document outer.
func (s *Scorer) Row(outer uint32) Row {
	if s.weighting != Cosine {
		return Row{}
	}
	return Row{cosine: true, outerNorm: s.outerNorms[outer], innerNorms: s.innerNorms}
}

// Finalize is Scorer.Finalize for the row's outer document.
func (r Row) Finalize(inner uint32, raw float64) float64 {
	if !r.cosine {
		return raw
	}
	var ni float64
	if int(inner) < len(r.innerNorms) {
		ni = r.innerNorms[inner]
	}
	if r.outerNorm == 0 || ni == 0 {
		return 0
	}
	return raw / (r.outerNorm * ni)
}

// Score computes the full similarity of two documents under the scorer
// with one merge walk: the reference implementation, whose summation order
// and product association every join is held to by its tests. No join
// calls it.
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
	return s.Finalize(outer.ID, inner.ID, raw)
}
