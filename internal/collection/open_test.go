package collection

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

func TestOpenRebuildsEverything(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(19))
	docs := randomDocs(r, 35, 60, 12)
	c := buildDocs(t, d, "c", docs)

	f, err := d.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open("c", f, c.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Stats(), reopened.Stats()
	if a.N != b.N || a.T != b.T || a.TotalCells != b.TotalCells || a.Bytes != b.Bytes || a.D != b.D {
		t.Errorf("stats differ: %+v vs %+v", a, b)
	}
	if math.Abs(a.K-b.K) > 1e-12 || math.Abs(a.S-b.S) > 1e-12 {
		t.Errorf("derived stats differ: %+v vs %+v", a, b)
	}
	for _, term := range c.Terms() {
		if c.DF(term) != reopened.DF(term) {
			t.Errorf("df(%d): %d vs %d", term, c.DF(term), reopened.DF(term))
		}
	}
	for id := uint32(0); int64(id) < c.NumDocs(); id++ {
		if math.Abs(c.Norm(id)-reopened.Norm(id)) > 1e-12 {
			t.Errorf("norm(%d) differs", id)
		}
		orig, err1 := c.Fetch(id)
		back, err2 := reopened.Fetch(id)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(orig.Cells) != len(back.Cells) {
			t.Fatalf("doc %d cells differ", id)
		}
		for i := range orig.Cells {
			if orig.Cells[i] != back.Cells[i] {
				t.Fatalf("doc %d cell %d differs", id, i)
			}
		}
	}
}

// TestTermTablesMatchMaps holds the term-indexed tables of a built and of a
// reopened collection to what a map counted from the documents gives: DF,
// HasTerm, Terms, T and every idf weight to the bit, for each term up to
// past the largest, absent ones inside the range included.
func TestTermTablesMatchMaps(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(23))
	docs := randomDocs(r, 40, 150, 8)
	df := map[uint32]int64{}
	var terms []uint32
	for _, doc := range docs {
		for _, c := range doc.Cells {
			if df[c.Term] == 0 {
				terms = append(terms, c.Term)
			}
			df[c.Term]++
		}
	}
	slices.Sort(terms)
	top := terms[len(terms)-1]
	built := buildDocs(t, d, "c", docs)
	f, err := d.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open("c", f, built.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Collection{built, reopened} {
		if c.Stats().T != int64(len(df)) || !slices.Equal(c.Terms(), terms) {
			t.Fatalf("T = %d, Terms = %v; want %d, %v", c.Stats().T, c.Terms(), len(df), terms)
		}
		idf := c.IDF()
		if len(idf) != int(top)+1 {
			t.Fatalf("idf covers %d terms, want %d", len(idf), top+1)
		}
		absent := 0
		for term := uint32(0); term <= top+3; term++ {
			if c.DF(term) != df[term] || c.HasTerm(term) != (df[term] > 0) {
				t.Fatalf("term %d: DF %d HasTerm %v, want %d", term, c.DF(term), c.HasTerm(term), df[term])
			}
			if df[term] == 0 {
				absent++
			}
			if term <= top && math.Float64bits(idf[term]) != math.Float64bits(document.IDF(c.NumDocs(), df[term])) {
				t.Fatalf("idf[%d] = %v, want %v", term, idf[term], document.IDF(c.NumDocs(), df[term]))
			}
		}
		if absent <= 3 {
			t.Fatalf("only %d absent terms probed", absent)
		}
	}
}

// TestTermTablesConcurrentFirstUse has views of a fresh collection race to
// the memoized tables: every view must get the one table built. Run it under
// -race.
func TestTermTablesConcurrentFirstUse(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildDocs(t, d, "c", randomDocs(rand.New(rand.NewSource(29)), 30, 80, 8))
	const views = 4
	idfs := make([][]float64, views)
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := d.View()
			defer v.Close()
			idfs[i] = c.WithView(v).IDF()
		}(i)
	}
	wg.Wait()
	for i := 1; i < views; i++ {
		if &idfs[i][0] != &idfs[0][0] {
			t.Fatalf("view %d got a table of its own", i)
		}
	}
}

func TestOpenEmpty(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildDocs(t, d, "c", nil)
	f, _ := d.Open("c")
	reopened, err := Open("c", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumDocs() != 0 || reopened.Stats() != c.Stats() {
		t.Errorf("reopened empty = %+v", reopened.Stats())
	}
}

func TestOpenWrongDocCount(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildDocs(t, d, "c", []*document.Document{
		document.New(0, map[uint32]int{1: 1}),
		document.New(1, map[uint32]int{2: 1}),
	})
	f, _ := d.Open("c")
	// Asking for more documents than exist must fail (reads past the end
	// or decodes padding as a wrong-id record).
	if _, err := Open("c", f, c.NumDocs()+5); err == nil {
		t.Error("over-count Open: want error")
	}
}

func TestOpenNotACollection(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	f, _ := d.Create("junk")
	f.AppendPage([]byte{9, 9, 9, 9, 9, 9, 9, 9})
	if _, err := Open("junk", f, 1); err == nil {
		t.Error("junk file: want error")
	}
}
