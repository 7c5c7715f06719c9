package textjoin

import (
	"math/rand"
	"testing"
)

func TestPublicGenerateCorpus(t *testing.T) {
	ws := NewWorkspace()
	p := Profile{Name: "gen", NumDocs: 40, TermsPerDoc: 8, DistinctTerms: 400}
	c, err := ws.GenerateCorpus(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 40 {
		t.Errorf("N = %d", c.NumDocs())
	}
	// Degenerate profile errors out.
	if _, err := ws.GenerateCorpus(Profile{Name: "bad", NumDocs: 1, TermsPerDoc: 10, DistinctTerms: 2}, 1); err == nil {
		t.Error("K > T: want error")
	}
}

func TestPublicBatch(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ws := NewWorkspace(WithPageSize(256))
	inner, err := ws.NewCollection("inner", randomDocuments(r, 20, 40, 10))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ws.BuildInvertedFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatch("q", randomDocuments(r, 4, 40, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, st, dec, err := JoinIntegrated(
		Inputs{Outer: batch, Inner: inner, InnerInv: inv},
		Options{Lambda: 3, MemoryPages: 200},
	)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == VVM {
		t.Error("VVM chosen for a batch")
	}
	if len(res) != 4 || st.OuterDocs != 4 {
		t.Errorf("res=%d outer=%d", len(res), st.OuterDocs)
	}
	// Duplicate ids rejected.
	if _, err := NewBatch("dup", []*Document{
		NewDocument(1, map[uint32]int{1: 1}),
		NewDocument(1, map[uint32]int{2: 1}),
	}); err == nil {
		t.Error("duplicate batch ids: want error")
	}
}

func TestPublicLocalMapping(t *testing.T) {
	dict := NewDictionary()
	m, err := NewLocalMapping("sys", dict, map[uint32]string{10: "go", 20: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.System() != "sys" {
		t.Errorf("mapping = %s/%d", m.System(), m.Len())
	}
	doc := m.RemapDocument(NewDocument(0, map[uint32]int{10: 3, 20: 1}))
	g, ok := dict.Lookup("go")
	if !ok || doc.Weight(g) != 3 {
		t.Errorf("remap: %+v", doc)
	}
}

func TestPublicBuildErrors(t *testing.T) {
	ws := NewWorkspace()
	// Out-of-order document ids.
	if _, err := ws.NewCollection("bad", []*Document{NewDocument(5, map[uint32]int{1: 1})}); err == nil {
		t.Error("bad ids: want error")
	}
	// Duplicate collection name.
	if _, err := ws.NewCollection("dup", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.NewCollection("dup", nil); err == nil {
		t.Error("duplicate name: want error")
	}
	// Inverted file name collision.
	c, err := ws.NewCollection("c", []*Document{NewDocument(0, map[uint32]int{1: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.BuildInvertedFile(c); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.BuildInvertedFile(c); err == nil {
		t.Error("duplicate inverted file: want error")
	}
	// OpenInvertedFile on a collection that has one works.
	inv, err := ws.OpenInvertedFile(c)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Stats().Entries != 1 {
		t.Errorf("entries = %d", inv.Stats().Entries)
	}
	// OpenInvertedFile for a collection without one fails.
	other, _ := ws.NewCollection("other", nil)
	if _, err := ws.OpenInvertedFile(other); err == nil {
		t.Error("missing inverted file: want error")
	}
}
