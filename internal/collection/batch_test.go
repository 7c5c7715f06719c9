package collection

import (
	"errors"
	"io"
	"math"
	"testing"

	"textjoin/internal/document"
)

func TestBatchBasics(t *testing.T) {
	docs := []*document.Document{
		document.New(3, map[uint32]int{1: 2, 5: 1}),
		document.New(9, map[uint32]int{5: 3}),
	}
	b, err := NewBatch("q", docs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "q" || b.NumDocs() != 2 {
		t.Errorf("name=%q n=%d", b.Name(), b.NumDocs())
	}
	if b.Base() != nil || b.File() != nil {
		t.Error("batch should have no base collection or file")
	}
	if b.DF(5) != 2 || b.DF(1) != 1 || b.DF(99) != 0 {
		t.Errorf("df: %d %d %d", b.DF(5), b.DF(1), b.DF(99))
	}
	terms := b.Terms()
	if len(terms) != 2 || terms[0] != 1 || terms[1] != 5 {
		t.Errorf("terms = %v", terms)
	}
	// Norms are by rank: ids 3 and 9 are ranks 0 and 1.
	if norms := b.Norms(); len(norms) != 2 || math.Abs(norms[0]-math.Sqrt(5)) > 1e-12 || norms[1] != 3 {
		t.Errorf("norms = %v", norms)
	}
	st := b.BaseStats()
	if st.N != 2 || st.T != 2 || st.TotalCells != 3 || st.K != 1.5 {
		t.Errorf("stats = %+v", st)
	}
	if st.D != 0 || st.Bytes != 0 {
		t.Errorf("memory-resident batch has storage sizes: %+v", st)
	}
	for i, d := range docs {
		if bytes, cells := b.DocSize(i); bytes != d.EncodedSize() || cells != len(d.Cells) {
			t.Errorf("DocSize(%d) = %d bytes, %d cells; want the packed size %d and %d", i, bytes, cells, d.EncodedSize(), len(d.Cells))
		}
	}
}

func TestBatchIteration(t *testing.T) {
	docs := []*document.Document{
		document.New(7, map[uint32]int{1: 1}),
		document.New(2, map[uint32]int{2: 1}),
	}
	b, err := NewBatch("q", docs)
	if err != nil {
		t.Fatal(err)
	}
	it := b.Documents()
	d1, err := it.Next()
	if err != nil || d1.ID != 7 {
		t.Fatalf("first = %v, %v", d1, err)
	}
	d2, err := it.Next()
	if err != nil || d2.ID != 2 {
		t.Fatalf("second = %v, %v", d2, err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Errorf("end err = %v", err)
	}
}

func TestBatchEmpty(t *testing.T) {
	b, err := NewBatch("q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumDocs() != 0 || b.BaseStats().K != 0 {
		t.Errorf("empty batch: %+v", b.BaseStats())
	}
	if _, err := b.Documents().Next(); err != io.EOF {
		t.Error("empty iteration should EOF")
	}
	if len(b.Terms()) != 0 {
		t.Error("empty batch has terms")
	}
}

func TestBatchValidation(t *testing.T) {
	dup := []*document.Document{
		document.New(1, map[uint32]int{1: 1}),
		document.New(1, map[uint32]int{2: 1}),
	}
	if _, err := NewBatch("q", dup); !errors.Is(err, ErrDuplicateDoc) {
		t.Errorf("dup err = %v", err)
	}
	bad := &document.Document{ID: 0, Cells: []document.Cell{{Term: 9, Weight: 1}, {Term: 1, Weight: 1}}}
	if _, err := NewBatch("q", []*document.Document{bad}); err == nil {
		t.Error("invalid doc: want error")
	}
}
