package termmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a, err := d.Intern("apple")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.Intern("banana")
	a2, _ := d.Intern("apple")
	if a != a2 {
		t.Errorf("re-intern changed number: %d vs %d", a, a2)
	}
	if a == b {
		t.Error("distinct terms share a number")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if n, ok := d.Lookup("banana"); !ok || n != b {
		t.Errorf("Lookup = %d, %v", n, ok)
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Error("Lookup of absent term succeeded")
	}
	s, err := d.Term(a)
	if err != nil || s != "apple" {
		t.Errorf("Term(%d) = %q, %v", a, s, err)
	}
	if _, err := d.Term(99); err == nil {
		t.Error("Term(out of range): want error")
	}
}

func TestLocalMappingBasics(t *testing.T) {
	dict := NewDictionary()
	// The standard already knows some terms.
	g1, _ := dict.Intern("database")
	g2, _ := dict.Intern("join")

	local := map[uint32]string{
		100: "join",     // known, different local number
		200: "database", // known
		300: "textual",  // new to the standard
	}
	m, err := NewLocalMapping("irsys1", dict, local)
	if err != nil {
		t.Fatal(err)
	}
	if m.System() != "irsys1" || m.Len() != 3 {
		t.Errorf("mapping = %s/%d", m.System(), m.Len())
	}
	if g, ok := m.Global(100); !ok || g != g2 {
		t.Errorf("Global(100) = %d, want %d", g, g2)
	}
	if g, ok := m.Global(200); !ok || g != g1 {
		t.Errorf("Global(200) = %d, want %d", g, g1)
	}
	if g, ok := m.Global(300); !ok || int(g) >= dict.Len() {
		t.Errorf("Global(300) = %d, dict len %d", g, dict.Len())
	}
	if _, ok := m.Global(999); ok {
		t.Error("Global of unmapped local succeeded")
	}
	if m.SizeBytes() != 3*6 {
		t.Errorf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestRemapDocument(t *testing.T) {
	dict := NewDictionary()
	m, err := NewLocalMapping("sys", dict, map[uint32]string{
		1: "alpha", 2: "beta", 3: "alpha", // locals 1 and 3 are the same term
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := document.New(7, map[uint32]int{1: 2, 2: 5, 3: 4, 9: 1}) // 9 unmapped
	out := m.RemapDocument(doc)
	if out.ID != 7 {
		t.Errorf("ID = %d", out.ID)
	}
	ga, _ := dict.Lookup("alpha")
	gb, _ := dict.Lookup("beta")
	if got := out.Weight(ga); got != 6 { // merged 2+4
		t.Errorf("alpha weight = %d, want 6", got)
	}
	if got := out.Weight(gb); got != 5 {
		t.Errorf("beta weight = %d, want 5", got)
	}
	if len(out.Cells) != 2 {
		t.Errorf("cells = %v", out.Cells)
	}
	if m.UnknownSeen() != 1 {
		t.Errorf("UnknownSeen = %d", m.UnknownSeen())
	}
}

func TestRemapAll(t *testing.T) {
	dict := NewDictionary()
	m, _ := NewLocalMapping("sys", dict, map[uint32]string{1: "x"})
	docs := []*document.Document{
		document.New(0, map[uint32]int{1: 1}),
		document.New(1, map[uint32]int{1: 3}),
	}
	out := m.RemapAll(docs)
	if len(out) != 2 || out[1].Weight(0) != 3 {
		t.Errorf("RemapAll = %+v", out)
	}
}

func TestTwoLocalsAgreeThroughStandard(t *testing.T) {
	// Two autonomous systems number the same vocabulary differently; after
	// remapping, identical texts have identical vectors.
	dict := NewDictionary()
	m1, _ := NewLocalMapping("a", dict, map[uint32]string{10: "data", 20: "base", 30: "query"})
	m2, _ := NewLocalMapping("b", dict, map[uint32]string{7: "query", 8: "data", 9: "base"})

	d1 := m1.RemapDocument(document.New(0, map[uint32]int{10: 1, 20: 2, 30: 3}))
	d2 := m2.RemapDocument(document.New(0, map[uint32]int{8: 1, 9: 2, 7: 3}))
	if len(d1.Cells) != len(d2.Cells) {
		t.Fatalf("cells differ: %v vs %v", d1.Cells, d2.Cells)
	}
	for i := range d1.Cells {
		if d1.Cells[i] != d2.Cells[i] {
			t.Errorf("cell %d: %v vs %v", i, d1.Cells[i], d2.Cells[i])
		}
	}
	if sim := document.Similarity(d1, d2); sim != 1*1+2*2+3*3 {
		t.Errorf("similarity = %v, want 14", sim)
	}
}

// Property: remapping preserves total occurrence mass of mapped terms.
func TestQuickRemapPreservesMass(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dict := NewDictionary()
		vocabSize := r.Intn(20) + 1
		vocab := make(map[uint32]string, vocabSize)
		for i := 0; i < vocabSize; i++ {
			// Collisions in names are allowed: several locals may map
			// to one standard term.
			vocab[uint32(i)] = string(rune('a' + r.Intn(8)))
		}
		m, err := NewLocalMapping("s", dict, vocab)
		if err != nil {
			return false
		}
		counts := make(map[uint32]int)
		var mass int
		for i := 0; i < r.Intn(15); i++ {
			local := uint32(r.Intn(vocabSize))
			w := r.Intn(5) + 1
			counts[local] += w
			mass += w
		}
		out := m.RemapDocument(document.New(1, counts))
		var got int
		for _, c := range out.Cells {
			got += int(c.Weight)
		}
		return got == mass
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
