package invfile

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"textjoin/internal/btree"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

func buildCollection(t testing.TB, d *iosim.Disk, name string, docs []*document.Document) *collection.Collection {
	t.Helper()
	f, err := d.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collection.NewBuilder(name, f)
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

func buildInverted(t testing.TB, d *iosim.Disk, c *collection.Collection, prefix string) *InvertedFile {
	t.Helper()
	ef, err := d.Create(prefix + ".inv")
	if err != nil {
		t.Fatal(err)
	}
	tf, err := d.Create(prefix + ".bt")
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Build(c, ef, tf)
	if err != nil {
		t.Fatal(err)
	}
	return inv
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

func TestBuildSmall(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", []*document.Document{
		mkdoc(0, 1, 1, 2), // term 1 x2, term 2 x1
		mkdoc(1, 2, 3),
		mkdoc(2, 1),
	})
	inv := buildInverted(t, d, c, "c")
	st := inv.Stats()
	if st.Entries != 3 {
		t.Errorf("Entries = %d, want 3", st.Entries)
	}
	if st.TotalCells != 5 {
		t.Errorf("TotalCells = %d, want 5", st.TotalCells)
	}
	if st.I != inv.File().Pages() {
		t.Errorf("I = %d, pages = %d", st.I, inv.File().Pages())
	}
	if inv.Tree() == nil {
		t.Fatal("nil tree")
	}

	// Scan yields entries in ascending term order with correct cells.
	sc := inv.Scan()
	e1, err := sc.NextReuse()
	if err != nil {
		t.Fatal(err)
	}
	if e1.Term != 1 || e1.DocFreq() != 2 {
		t.Errorf("entry 1 = %+v", e1)
	}
	if e1.Cells[0].Number != 0 || e1.Cells[0].Weight != 2 {
		t.Errorf("term 1 cell 0 = %+v, want doc 0 weight 2", e1.Cells[0])
	}
	if e1.Cells[1].Number != 2 || e1.Cells[1].Weight != 1 {
		t.Errorf("term 1 cell 1 = %+v", e1.Cells[1])
	}
	e2, _ := sc.NextReuse()
	if e2.Term != 2 || e2.DocFreq() != 2 {
		t.Errorf("entry 2 = %+v", e2)
	}
	e3, _ := sc.NextReuse()
	if e3.Term != 3 || e3.DocFreq() != 1 || e3.Cells[0].Number != 1 {
		t.Errorf("entry 3 = %+v", e3)
	}
	if _, err := sc.NextReuse(); err != io.EOF {
		t.Errorf("after last entry err = %v, want EOF", err)
	}
}

func TestBuildRejectsNonEmptyTargets(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", []*document.Document{mkdoc(0, 1)})
	ef, _ := d.Create("e")
	tf, _ := d.Create("t")
	ef.AppendPage(nil)
	if _, err := Build(c, ef, tf); err == nil {
		t.Error("non-empty entry file: want error")
	}
}

func TestIndexRequired(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", []*document.Document{mkdoc(0, 1)})
	inv := buildInverted(t, d, c, "c")
	if _, err := inv.FetchEntry(1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("FetchEntry err = %v, want ErrNoIndex", err)
	}
	if _, err := inv.Contains(1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("Contains err = %v, want ErrNoIndex", err)
	}
	if _, err := inv.DocFreq(1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("DocFreq err = %v, want ErrNoIndex", err)
	}
	if _, err := inv.EntryPages(1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("EntryPages err = %v, want ErrNoIndex", err)
	}
	if _, err := inv.Index(); !errors.Is(err, ErrNoIndex) {
		t.Errorf("Index err = %v, want ErrNoIndex", err)
	}
}

func TestFetchEntry(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(21))
	docs := randomDocs(r, 30, 40, 12)
	c := buildCollection(t, d, "c", docs)
	inv := buildInverted(t, d, c, "c")
	if _, err := inv.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.LoadIndex(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, term := range c.Terms() {
		e, err := inv.FetchEntry(term)
		if err != nil {
			t.Fatalf("FetchEntry(%d): %v", term, err)
		}
		if e.Term != term {
			t.Fatalf("entry term = %d, want %d", e.Term, term)
		}
		if int64(e.DocFreq()) != c.DF(term) {
			t.Errorf("term %d df = %d, want %d", term, e.DocFreq(), c.DF(term))
		}
		// Cells ascending by doc and weights match documents.
		prev := int64(-1)
		for _, cell := range e.Cells {
			if int64(cell.Number) <= prev {
				t.Fatalf("term %d cells not ascending", term)
			}
			prev = int64(cell.Number)
			if w := docs[cell.Number].Weight(term); w != cell.Weight {
				t.Errorf("term %d doc %d weight = %d, want %d", term, cell.Number, cell.Weight, w)
			}
		}
		df, err := inv.DocFreq(term)
		if err != nil || df != c.DF(term) {
			t.Errorf("DocFreq(%d) = %d, %v", term, df, err)
		}
		ok, err := inv.Contains(term)
		if err != nil || !ok {
			t.Errorf("Contains(%d) = %v, %v", term, ok, err)
		}
	}
	if _, err := inv.FetchEntry(999999); !errors.Is(err, ErrNoTerm) {
		t.Errorf("absent FetchEntry err = %v, want ErrNoTerm", err)
	}
	if df, err := inv.DocFreq(999999); err != nil || df != 0 {
		t.Errorf("absent DocFreq = %d, %v", df, err)
	}
	if _, err := inv.EntryPages(999999); !errors.Is(err, ErrNoTerm) {
		t.Errorf("absent EntryPages err = %v, want ErrNoTerm", err)
	}
}

// TestTermTablesAgreeWithSearch holds every by-term read of a loaded index
// to the B+tree's own Search, on a built and on a reopened file: every
// indexed term, each absent term inside the range, term 0 and terms past
// the largest. An empty index knows no term.
func TestTermTablesAgreeWithSearch(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(8))
	c := buildCollection(t, d, "c", randomDocs(r, 40, 150, 8))
	built := buildInverted(t, d, c, "c")
	opened, err := Open(built.File(), built.Tree().File())
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range []*InvertedFile{built, opened} {
		idx, err := inv.LoadIndex()
		if err != nil {
			t.Fatal(err)
		}
		top, absent := idx.Cells()[idx.Len()-1].Term, 0
		for term := uint32(0); term <= top+3; term++ {
			cell, serr := inv.Tree().Search(term)
			got, ok := idx.Lookup(term)
			if ok != (serr == nil) || got != cell || idx.Contains(term) != ok {
				t.Fatalf("term %d: Lookup %+v %v, Contains %v; Search %+v %v", term, got, ok, idx.Contains(term), cell, serr)
			}
			pages, perr := inv.EntryPages(term)
			e := &Entry{}
			_, ferr := inv.FetchEntryInto(term, e, nil)
			df, derr := inv.DocFreq(term)
			if !ok {
				absent++
				if !errors.Is(serr, btree.ErrNotFound) || !errors.Is(perr, ErrNoTerm) || !errors.Is(ferr, ErrNoTerm) || df != 0 || derr != nil {
					t.Fatalf("absent term %d: EntryPages %v, FetchEntryInto %v, DocFreq %d %v", term, perr, ferr, df, derr)
				}
				continue
			}
			if perr != nil || ferr != nil || derr != nil {
				t.Fatalf("term %d: %v %v %v", term, perr, ferr, derr)
			}
			if e.Term != term || len(e.Cells) != int(cell.DocFreq) || df != int64(cell.DocFreq) {
				t.Fatalf("term %d: entry %d with %d cells, DocFreq %d; Search %+v", term, e.Term, len(e.Cells), df, cell)
			}
			if want := iosim.SpannedPages(int64(cell.Addr), e.Bytes(), 64); pages != want {
				t.Fatalf("term %d: EntryPages %d, want %d", term, pages, want)
			}
		}
		if absent <= 3 {
			t.Fatalf("only %d absent terms probed", absent)
		}
	}

	empty := buildInverted(t, d, buildCollection(t, d, "e", nil), "e")
	idx, err := empty.LoadIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("empty index holds %d cells", idx.Len())
	}
	for _, term := range []uint32{0, 1, 1000} {
		_, ok := idx.Lookup(term)
		_, perr := empty.EntryPages(term)
		_, ferr := empty.FetchEntry(term)
		df, derr := empty.DocFreq(term)
		if ok || idx.Contains(term) || !errors.Is(perr, ErrNoTerm) || !errors.Is(ferr, ErrNoTerm) || df != 0 || derr != nil {
			t.Fatalf("empty index, term %d: Lookup %v, EntryPages %v, FetchEntry %v, DocFreq %d %v", term, ok, perr, ferr, df, derr)
		}
	}
}

// TestIndexConcurrentFirstUse has views of a fresh inverted file race to
// load its index and fetch through it: each must see the one index and
// every entry. Run it under -race.
func TestIndexConcurrentFirstUse(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", randomDocs(rand.New(rand.NewSource(31)), 30, 80, 8))
	inv := buildInverted(t, d, c, "c")
	const views = 4
	idxs := make([]*btree.MemIndex, views)
	errs := make([]error, views)
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := d.View()
			defer v.Close()
			iv, err := inv.WithView(v)
			if err != nil {
				errs[i] = err
				return
			}
			for _, term := range c.Terms() {
				if e, err := iv.FetchEntry(term); err != nil || e.Term != term || int64(e.DocFreq()) != c.DF(term) {
					errs[i] = fmt.Errorf("term %d: %+v, %v", term, e, err)
					return
				}
			}
			idxs[i], errs[i] = iv.Index()
		}(i)
	}
	wg.Wait()
	for i := range idxs {
		if errs[i] != nil {
			t.Fatalf("view %d: %v", i, errs[i])
		}
		if idxs[i] != idxs[0] {
			t.Fatalf("view %d loaded an index of its own", i)
		}
	}
}

func TestEntryAccessors(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", []*document.Document{mkdoc(0, 1, 2), mkdoc(1, 1)})
	inv := buildInverted(t, d, c, "c")
	if _, err := inv.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	idx, err := inv.Index()
	if err != nil || idx.Len() != 2 {
		t.Fatalf("Index = %v, %v", idx, err)
	}
	e, err := inv.FetchEntry(1)
	if err != nil {
		t.Fatal(err)
	}
	// term 1 appears in both docs: 2 i-cells of 5 bytes + 6-byte header.
	if e.Bytes() != 16 {
		t.Errorf("Bytes = %d, want 16", e.Bytes())
	}
	if e.DocFreq() != 2 {
		t.Errorf("DocFreq = %d", e.DocFreq())
	}
}

func TestFetchIsRandomIO(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(4))
	docs := randomDocs(r, 30, 20, 15)
	c := buildCollection(t, d, "c", docs)
	inv := buildInverted(t, d, c, "c")
	inv.LoadIndex()
	d.ResetStats()
	terms := c.Terms()
	var wantPages int64
	for _, term := range terms[:5] {
		p, err := inv.EntryPages(term)
		if err != nil {
			t.Fatal(err)
		}
		wantPages += p
		if _, err := inv.FetchEntry(term); err != nil {
			t.Fatal(err)
		}
	}
	s := inv.File().Stats()
	if s.Reads() != wantPages {
		t.Errorf("reads = %d, want spanned pages %d", s.Reads(), wantPages)
	}
	if s.RandReads < 5 {
		t.Errorf("RandReads = %d, want >= 1 per fetch", s.RandReads)
	}
}

func TestScanIsSequentialAndCostsI(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(17))
	docs := randomDocs(r, 40, 60, 10)
	c := buildCollection(t, d, "c", docs)
	inv := buildInverted(t, d, c, "c")
	d.ResetStats()
	sc := inv.Scan()
	count := int64(0)
	for {
		_, err := sc.NextReuse()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != inv.Stats().Entries {
		t.Errorf("scanned %d entries, want %d", count, inv.Stats().Entries)
	}
	s := inv.File().Stats()
	if s.Reads() != inv.Stats().I {
		t.Errorf("reads = %d, want I = %d", s.Reads(), inv.Stats().I)
	}
	if s.RandReads != 1 {
		t.Errorf("RandReads = %d, want 1", s.RandReads)
	}
}

func TestInvertedFileSizeMatchesCollection(t *testing.T) {
	// Paper: "if document numbers and term numbers have the same size,
	// its total size is the same as the total size of its corresponding
	// inverted file" — up to the per-record headers.
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	r := rand.New(rand.NewSource(8))
	docs := randomDocs(r, 200, 300, 30)
	c := buildCollection(t, d, "c", docs)
	inv := buildInverted(t, d, c, "c")
	cellBytes := c.Stats().TotalCells * 5
	collOverhead := c.Stats().Bytes - cellBytes
	invOverhead := inv.Stats().Bytes - cellBytes
	if inv.Stats().TotalCells != c.Stats().TotalCells {
		t.Errorf("cells: inv %d, coll %d", inv.Stats().TotalCells, c.Stats().TotalCells)
	}
	if collOverhead != 6*c.Stats().N || invOverhead != 6*c.Stats().T {
		t.Errorf("overheads: coll %d (N=%d), inv %d (T=%d)", collOverhead, c.Stats().N, invOverhead, c.Stats().T)
	}
}

func TestEmptyCollection(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", nil)
	inv := buildInverted(t, d, c, "c")
	if inv.Stats().Entries != 0 || inv.Tree() != nil {
		t.Errorf("empty stats = %+v, tree = %v", inv.Stats(), inv.Tree())
	}
	if _, err := inv.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	ok, err := inv.Contains(1)
	if err != nil || ok {
		t.Errorf("Contains on empty = %v, %v", ok, err)
	}
	if _, err := inv.Scan().NextReuse(); err != io.EOF {
		t.Errorf("scan empty err = %v, want EOF", err)
	}
}

// Property: for any random collection, rebuilding documents from the
// inverted file (transposing back) reproduces exactly the original
// document-term matrix.
func TestQuickInversionRoundTrip(t *testing.T) {
	check := func(seed int64, psSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pageSize := []int{48, 64, 128, 4096}[psSeed%4]
		d := iosim.NewDisk(iosim.WithPageSize(pageSize))
		docs := randomDocs(r, r.Intn(25)+1, 40, 10)
		f, _ := d.Create("c")
		b, _ := collection.NewBuilder("c", f)
		for _, doc := range docs {
			if err := b.Add(doc); err != nil {
				return false
			}
		}
		c, err := b.Finish()
		if err != nil {
			return false
		}
		ef, _ := d.Create("e")
		tf, _ := d.Create("t")
		inv, err := Build(c, ef, tf)
		if err != nil {
			return false
		}
		// Transpose back.
		rebuilt := make(map[uint32]map[uint32]uint16)
		sc := inv.Scan()
		var prevTerm int64 = -1
		for {
			e, err := sc.NextReuse()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			if int64(e.Term) <= prevTerm {
				return false // terms must ascend
			}
			prevTerm = int64(e.Term)
			for _, cell := range e.Cells {
				if rebuilt[cell.Number] == nil {
					rebuilt[cell.Number] = make(map[uint32]uint16)
				}
				rebuilt[cell.Number][e.Term] = cell.Weight
			}
		}
		for _, doc := range docs {
			got := rebuilt[doc.ID]
			if len(got) != len(doc.Cells) {
				return false
			}
			for _, cell := range doc.Cells {
				if got[cell.Term] != cell.Weight {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: FetchEntry equals the entry found by a full scan, for random
// probes.
func TestQuickFetchMatchesScan(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := iosim.NewDisk(iosim.WithPageSize(64))
		docs := randomDocs(r, r.Intn(20)+5, 30, 8)
		f, _ := d.Create("c")
		b, _ := collection.NewBuilder("c", f)
		for _, doc := range docs {
			if err := b.Add(doc); err != nil {
				return false
			}
		}
		c, err := b.Finish()
		if err != nil {
			return false
		}
		ef, _ := d.Create("e")
		tf, _ := d.Create("t")
		inv, err := Build(c, ef, tf)
		if err != nil {
			return false
		}
		if _, err := inv.LoadIndex(); err != nil {
			return false
		}
		byTerm := make(map[uint32]*Entry)
		sc := inv.Scan()
		for {
			e, err := sc.NextReuse()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			byTerm[e.Term] = &Entry{Term: e.Term, Cells: slices.Clone(e.Cells)}
		}
		for _, term := range c.Terms() {
			fetched, err := inv.FetchEntry(term)
			if err != nil {
				return false
			}
			want := byTerm[term]
			if len(fetched.Cells) != len(want.Cells) {
				return false
			}
			for i := range want.Cells {
				if fetched.Cells[i] != want.Cells[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
