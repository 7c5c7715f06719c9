package collection

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

func newDisk(pageSize int) *iosim.Disk {
	return iosim.NewDisk(iosim.WithPageSize(pageSize))
}

func buildDocs(t *testing.T, d *iosim.Disk, name string, docs []*document.Document) *Collection {
	t.Helper()
	f, err := d.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(name, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkdoc(id uint32, terms ...uint32) *document.Document {
	counts := make(map[uint32]int, len(terms))
	for _, t := range terms {
		counts[t]++
	}
	return document.New(id, counts)
}

func randomDocs(r *rand.Rand, n, vocab, maxLen int) []*document.Document {
	docs := make([]*document.Document, n)
	for i := range docs {
		counts := make(map[uint32]int)
		for j, l := 0, r.Intn(maxLen)+1; j < l; j++ {
			counts[uint32(r.Intn(vocab))]++
		}
		docs[i] = document.New(uint32(i), counts)
	}
	return docs
}

func TestBuilderOrderEnforced(t *testing.T) {
	d := newDisk(256)
	f, _ := d.Create("c")
	b, err := NewBuilder("c", f)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(mkdoc(1, 5)); !errors.Is(err, ErrDocOrder) {
		t.Errorf("out-of-order Add err = %v, want ErrDocOrder", err)
	}
	if err := b.Add(mkdoc(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(mkdoc(0, 5)); !errors.Is(err, ErrDocOrder) {
		t.Errorf("duplicate id err = %v, want ErrDocOrder", err)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(mkdoc(1, 5)); !errors.Is(err, ErrFinished) {
		t.Errorf("Add after Finish err = %v, want ErrFinished", err)
	}
	if _, err := b.Finish(); !errors.Is(err, ErrFinished) {
		t.Errorf("double Finish err = %v, want ErrFinished", err)
	}
}

func TestBuilderRejectsNonEmptyFile(t *testing.T) {
	d := newDisk(256)
	f, _ := d.Create("c")
	f.AppendPage(nil)
	if _, err := NewBuilder("c", f); err == nil {
		t.Error("NewBuilder on non-empty file: want error")
	}
}

func TestBuilderRejectsInvalidDoc(t *testing.T) {
	d := newDisk(256)
	f, _ := d.Create("c")
	b, _ := NewBuilder("c", f)
	bad := &document.Document{ID: 0, Cells: []document.Cell{{Term: 9, Weight: 1}, {Term: 3, Weight: 1}}}
	if err := b.Add(bad); err == nil {
		t.Error("Add invalid doc: want error")
	}
}

func TestStatsMeasured(t *testing.T) {
	d := newDisk(64)
	docs := []*document.Document{
		mkdoc(0, 1, 1, 2),    // terms {1,2}, 2 cells
		mkdoc(1, 2, 3, 4, 4), // terms {2,3,4}, 3 cells
		mkdoc(2, 5),          // terms {5}, 1 cell
	}
	c := buildDocs(t, d, "c", docs)
	st := c.Stats()
	if st.N != 3 {
		t.Errorf("N = %d", st.N)
	}
	if st.T != 5 {
		t.Errorf("T = %d", st.T)
	}
	if st.TotalCells != 6 {
		t.Errorf("TotalCells = %d", st.TotalCells)
	}
	if math.Abs(st.K-2) > 1e-9 {
		t.Errorf("K = %v, want 2", st.K)
	}
	wantBytes := int64(3*6 + 6*5) // 3 headers + 6 cells
	if st.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if st.D != c.File().Pages() {
		t.Errorf("D = %d, pages = %d", st.D, c.File().Pages())
	}
	if st.PageSize != 64 {
		t.Errorf("PageSize = %d", st.PageSize)
	}
	if c.NumDocs() != 3 || c.Name() != "c" {
		t.Errorf("NumDocs=%d Name=%q", c.NumDocs(), c.Name())
	}
}

func TestDocumentFrequencies(t *testing.T) {
	d := newDisk(128)
	c := buildDocs(t, d, "c", []*document.Document{
		mkdoc(0, 1, 2), mkdoc(1, 2, 3), mkdoc(2, 2),
	})
	for _, tc := range []struct {
		term uint32
		want int64
	}{{1, 1}, {2, 3}, {3, 1}, {9, 0}} {
		if got := c.DF(tc.term); got != tc.want {
			t.Errorf("DF(%d) = %d, want %d", tc.term, got, tc.want)
		}
	}
	if !c.HasTerm(2) || c.HasTerm(9) {
		t.Error("HasTerm wrong")
	}
	terms := c.Terms()
	if len(terms) != 3 || terms[0] != 1 || terms[1] != 2 || terms[2] != 3 {
		t.Errorf("Terms = %v", terms)
	}
	idf := c.IDF()
	if len(idf) != 4 || idf[0] != 0 || idf[2] >= idf[1] {
		t.Errorf("idf common %v should be < idf rare %v", idf[2], idf[1])
	}
}

func TestNorms(t *testing.T) {
	d := newDisk(128)
	doc0 := mkdoc(0, 1, 1, 1, 2, 2, 2) // weights 3,3 -> norm sqrt(18)
	c := buildDocs(t, d, "c", []*document.Document{doc0})
	if got := c.Norm(0); math.Abs(got-math.Sqrt(18)) > 1e-12 {
		t.Errorf("Norm(0) = %v", got)
	}
	if got := c.Norm(5); got != 0 {
		t.Errorf("Norm(out of range) = %v", got)
	}
	norms := c.Norms()
	if len(norms) != 1 || norms[0] != c.Norm(0) {
		t.Errorf("Norms = %v", norms)
	}
	if dn := c.DocNorms(); len(dn) != 1 || dn[0] != c.Norm(0) {
		t.Errorf("DocNorms = %v", dn)
	}
}

func TestFetch(t *testing.T) {
	d := newDisk(32) // small pages so docs span pages
	r := rand.New(rand.NewSource(7))
	docs := randomDocs(r, 20, 50, 12)
	c := buildDocs(t, d, "c", docs)
	for i := 19; i >= 0; i-- {
		got, err := c.Fetch(uint32(i))
		if err != nil {
			t.Fatalf("Fetch(%d): %v", i, err)
		}
		if got.ID != uint32(i) || len(got.Cells) != len(docs[i].Cells) {
			t.Fatalf("Fetch(%d) = %+v", i, got)
		}
		for j := range got.Cells {
			if got.Cells[j] != docs[i].Cells[j] {
				t.Fatalf("Fetch(%d) cell %d = %v, want %v", i, j, got.Cells[j], docs[i].Cells[j])
			}
		}
	}
	if _, err := c.Fetch(99); !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("Fetch(99) err = %v, want ErrNoSuchDoc", err)
	}
	if _, err := c.Ref(99); !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("Ref(99) err = %v, want ErrNoSuchDoc", err)
	}
}

func TestScanReturnsAllDocsOnce(t *testing.T) {
	d := newDisk(64)
	r := rand.New(rand.NewSource(11))
	docs := randomDocs(r, 50, 100, 20)
	c := buildDocs(t, d, "c", docs)
	sc := c.Scan()
	for i := 0; i < 50; i++ {
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got.ID != uint32(i) {
			t.Fatalf("doc %d has id %d", i, got.ID)
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Errorf("final Next err = %v, want EOF", err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Errorf("Next after EOF err = %v, want EOF", err)
	}
}

func TestScanIsSequentialAndCostsD(t *testing.T) {
	d := newDisk(64)
	r := rand.New(rand.NewSource(3))
	docs := randomDocs(r, 40, 80, 16)
	c := buildDocs(t, d, "c", docs)
	d.ResetStats()
	sc := c.Scan()
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Reads() != c.Stats().D {
		t.Errorf("scan reads = %d, want D = %d", s.Reads(), c.Stats().D)
	}
	if s.RandReads != 1 {
		t.Errorf("RandReads = %d, want 1", s.RandReads)
	}
}

func TestReaderInterface(t *testing.T) {
	d := newDisk(128)
	c := buildDocs(t, d, "c", []*document.Document{mkdoc(0, 1), mkdoc(1, 2)})
	var r Reader = c
	if r.NumDocs() != 2 || r.Base() != c {
		t.Error("Reader basics wrong")
	}
	if r.AvgDocBytes() != float64(c.Stats().Bytes)/2 {
		t.Errorf("AvgDocBytes = %v", r.AvgDocBytes())
	}
	it := r.Documents()
	n := 0
	for {
		_, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("iterated %d docs", n)
	}
}

func TestSubsetBasics(t *testing.T) {
	d := newDisk(64)
	r := rand.New(rand.NewSource(5))
	docs := randomDocs(r, 30, 60, 10)
	c := buildDocs(t, d, "c", docs)
	sub, err := c.Subset([]uint32{7, 3, 7, 20})
	if err != nil {
		t.Fatal(err)
	}
	ids := sub.IDs()
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 7 || ids[2] != 20 {
		t.Errorf("IDs = %v (want sorted dedup)", ids)
	}
	if sub.NumDocs() != 3 || sub.Base() != c {
		t.Error("subset basics wrong")
	}
	if sub.Name() == "" {
		t.Error("empty Name")
	}
	if _, err := c.Subset([]uint32{99}); !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("bad id err = %v, want ErrNoSuchDoc", err)
	}
}

func TestSubsetIterationIsRandomIO(t *testing.T) {
	d := newDisk(64)
	r := rand.New(rand.NewSource(9))
	docs := randomDocs(r, 40, 60, 10)
	c := buildDocs(t, d, "c", docs)
	sub, err := c.Subset([]uint32{2, 3, 4}) // adjacent docs: would be partly sequential without head parking
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	it := sub.Documents()
	seen := 0
	for {
		doc, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if doc.ID != sub.IDs()[seen] {
			t.Errorf("doc %d = id %d", seen, doc.ID)
		}
		seen++
	}
	s := d.Stats()
	if seen != 3 {
		t.Fatalf("saw %d docs", seen)
	}
	if s.RandReads < 3 {
		t.Errorf("RandReads = %d, want >= 1 per doc", s.RandReads)
	}
}

func TestReaderAccessors(t *testing.T) {
	d := newDisk(128)
	c := buildDocs(t, d, "c", []*document.Document{mkdoc(0, 1, 2), mkdoc(1, 2)})
	// Collection as Reader.
	var r Reader = c
	if r.File() != c.File() || r.BaseStats() != c.Stats() {
		t.Error("collection reader accessors wrong")
	}
	if c.Stats().T != 2 {
		t.Errorf("T = %d, want 2", c.Stats().T)
	}
	// Subset delegates to the base collection.
	sub, err := c.Subset([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	var sr Reader = sub
	if sr.File() != c.File() || sr.BaseStats() != c.Stats() {
		t.Error("subset reader accessors wrong")
	}
	if sr.DF(2) != c.DF(2) {
		t.Errorf("subset DF = %d", sr.DF(2))
	}
	if len(sr.Norms()) != 2 {
		t.Errorf("subset Norms = %v", sr.Norms())
	}
	terms := sr.Terms()
	if len(terms) != 2 || terms[0] != 1 {
		t.Errorf("subset Terms = %v", terms)
	}
	if sub.AvgDocBytes() <= 0 {
		t.Error("subset AvgDocBytes")
	}
}

func TestSubsetStats(t *testing.T) {
	d := newDisk(64)
	c := buildDocs(t, d, "c", []*document.Document{
		mkdoc(0, 1, 2), mkdoc(1, 3, 4, 5), mkdoc(2, 1),
	})
	sub, _ := c.Subset([]uint32{0, 1})
	st := sub.Stats()
	if st.N != 2 {
		t.Errorf("N = %d", st.N)
	}
	if math.Abs(st.K-2.5) > 1e-9 {
		t.Errorf("K = %v, want 2.5", st.K)
	}
	if st.T <= 0 || st.T > c.Stats().T {
		t.Errorf("T = %d, parent T = %d", st.T, c.Stats().T)
	}
	empty, _ := c.Subset(nil)
	if est := empty.Stats(); est.N != 0 || est.K != 0 {
		t.Errorf("empty subset stats = %+v", est)
	}
	if empty.AvgDocBytes() != 0 {
		t.Errorf("empty AvgDocBytes = %v", empty.AvgDocBytes())
	}
}

func TestVocabularyGrowth(t *testing.T) {
	// f is increasing in m and approaches T.
	tt, k := 1000.0, 50.0
	prev := 0.0
	for _, m := range []float64{1, 2, 5, 10, 100, 1000} {
		f := VocabularyGrowth(tt, k, m)
		if f <= prev {
			t.Errorf("f(%v) = %v not increasing (prev %v)", m, f, prev)
		}
		if f > tt {
			t.Errorf("f(%v) = %v exceeds T", m, f)
		}
		prev = f
	}
	if got := VocabularyGrowth(tt, k, 1); math.Abs(got-k) > 1e-9 {
		t.Errorf("f(1) = %v, want K = %v", got, k)
	}
	if VocabularyGrowth(0, 5, 10) != 0 || VocabularyGrowth(100, 5, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	// K > T (cannot happen in practice) must not blow up.
	if got := VocabularyGrowth(10, 20, 3); got != 10 {
		t.Errorf("f with K>T = %v, want T", got)
	}
}

func TestMaterialize(t *testing.T) {
	d := newDisk(64)
	r := rand.New(rand.NewSource(13))
	docs := randomDocs(r, 25, 40, 8)
	c := buildDocs(t, d, "c", docs)
	sub, _ := c.Subset([]uint32{4, 9, 17})
	f, _ := d.Create("small")
	small, origIDs, err := Materialize("small", f, sub)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumDocs() != 3 {
		t.Fatalf("materialized N = %d", small.NumDocs())
	}
	if len(origIDs) != 3 || origIDs[0] != 4 || origIDs[1] != 9 || origIDs[2] != 17 {
		t.Errorf("origIDs = %v", origIDs)
	}
	for newID, oldID := range origIDs {
		got, err := small.Fetch(uint32(newID))
		if err != nil {
			t.Fatal(err)
		}
		want := docs[oldID]
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("doc %d cells = %d, want %d", newID, len(got.Cells), len(want.Cells))
		}
		for i := range want.Cells {
			if got.Cells[i] != want.Cells[i] {
				t.Errorf("doc %d cell %d differs", newID, i)
			}
		}
	}
}

// Property: build + scan round-trips any random document set, and the scan
// touches exactly D pages.
func TestQuickBuildScanRoundTrip(t *testing.T) {
	check := func(seed int64, psSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pageSize := []int{32, 64, 128, 4096}[psSeed%4]
		d := newDisk(pageSize)
		docs := randomDocs(r, r.Intn(30)+1, 50, 15)
		f, _ := d.Create("c")
		b, err := NewBuilder("c", f)
		if err != nil {
			return false
		}
		for _, doc := range docs {
			if err := b.Add(doc); err != nil {
				return false
			}
		}
		c, err := b.Finish()
		if err != nil {
			return false
		}
		d.ResetStats()
		sc := c.Scan()
		for i := 0; ; i++ {
			doc, err := sc.Next()
			if err == io.EOF {
				if i != len(docs) {
					return false
				}
				break
			}
			if err != nil || doc.ID != uint32(i) || len(doc.Cells) != len(docs[i].Cells) {
				return false
			}
			for j := range doc.Cells {
				if doc.Cells[j] != docs[i].Cells[j] {
					return false
				}
			}
		}
		return d.Stats().Reads() == c.Stats().D
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Fetch(id) equals the id-th document of a scan for random ids.
func TestQuickFetchMatchesScan(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := newDisk(64)
		docs := randomDocs(r, r.Intn(40)+1, 60, 12)
		f, _ := d.Create("c")
		b, _ := NewBuilder("c", f)
		for _, doc := range docs {
			if err := b.Add(doc); err != nil {
				return false
			}
		}
		c, err := b.Finish()
		if err != nil {
			return false
		}
		for probe := 0; probe < 10; probe++ {
			id := uint32(r.Intn(len(docs)))
			got, err := c.Fetch(id)
			if err != nil || got.ID != id || len(got.Cells) != len(docs[id].Cells) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
