package corpus

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

func TestPaperProfiles(t *testing.T) {
	if WSJ.NumDocs != 98736 || WSJ.TermsPerDoc != 329 || WSJ.DistinctTerms != 156298 {
		t.Errorf("WSJ = %+v", WSJ)
	}
	if FR.NumDocs != 26207 || FR.TermsPerDoc != 1017 || FR.DistinctTerms != 126258 {
		t.Errorf("FR = %+v", FR)
	}
	if DOE.NumDocs != 226087 || DOE.TermsPerDoc != 89 || DOE.DistinctTerms != 186225 {
		t.Errorf("DOE = %+v", DOE)
	}
	if len(Profiles()) != 3 {
		t.Error("Profiles() wrong length")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"wsj", "WSJ", "Fr", "doe"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("trec"); err == nil {
		t.Error("unknown profile: want error")
	}
}

func TestStatsConversion(t *testing.T) {
	st := FR.Stats()
	if st.N != FR.NumDocs || st.K != FR.TermsPerDoc || st.T != FR.DistinctTerms {
		t.Errorf("Stats = %+v", st)
	}
}

func TestScaledPreservesDensity(t *testing.T) {
	for _, p := range Profiles() {
		s := p.Scaled(256)
		if s.NumDocs >= p.NumDocs || s.DistinctTerms >= p.DistinctTerms {
			t.Errorf("%s scaled up: %+v", p.Name, s)
		}
		origDensity := p.TermsPerDoc / float64(p.DistinctTerms)
		newDensity := s.TermsPerDoc / float64(s.DistinctTerms)
		if newDensity < origDensity/3 || newDensity > origDensity*3 {
			t.Errorf("%s density drifted: %v -> %v", p.Name, origDensity, newDensity)
		}
		if !strings.Contains(s.Name, p.Name) {
			t.Errorf("scaled name = %q", s.Name)
		}
	}
	if got := WSJ.Scaled(1); got != WSJ {
		t.Error("Scaled(1) should be identity")
	}
}

func TestFewerLargerDocsKeepsSize(t *testing.T) {
	p := FR.FewerLargerDocs(16)
	if p.NumDocs != FR.NumDocs/16 {
		t.Errorf("NumDocs = %d", p.NumDocs)
	}
	if p.TermsPerDoc != FR.TermsPerDoc*16 {
		t.Errorf("TermsPerDoc = %v", p.TermsPerDoc)
	}
	// Collection size N·K is preserved up to the integer division of N.
	orig := float64(FR.NumDocs) * FR.TermsPerDoc
	got := float64(p.NumDocs) * p.TermsPerDoc
	if math.Abs(got-orig)/orig > 0.01 {
		t.Errorf("size drifted: %v -> %v", orig, got)
	}
	if got := FR.FewerLargerDocs(1); got != FR {
		t.Error("FewerLargerDocs(1) should be identity")
	}
	// K is capped at T.
	huge := FR.FewerLargerDocs(1 << 20)
	if huge.TermsPerDoc > float64(huge.DistinctTerms) {
		t.Errorf("K %v > T %d", huge.TermsPerDoc, huge.DistinctTerms)
	}
}

func TestSmallProfile(t *testing.T) {
	p := WSJ.Small(50)
	if p.NumDocs != 50 {
		t.Errorf("NumDocs = %d", p.NumDocs)
	}
	if p.DistinctTerms >= WSJ.DistinctTerms {
		t.Errorf("T = %d not reduced", p.DistinctTerms)
	}
	if p.DistinctTerms < int64(p.TermsPerDoc) {
		t.Errorf("T = %d < K = %v", p.DistinctTerms, p.TermsPerDoc)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Profile{NumDocs: 1, TermsPerDoc: 10, DistinctTerms: 5}, 1); err == nil {
		t.Error("K > T: want error")
	}
	if _, err := NewGenerator(Profile{NumDocs: 1, TermsPerDoc: 0, DistinctTerms: 5}, 1); err == nil {
		t.Error("K = 0: want error")
	}
}

func TestGenerateMatchesProfileStats(t *testing.T) {
	p := Profile{Name: "test", NumDocs: 400, TermsPerDoc: 30, DistinctTerms: 2000}
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	c, err := GenerateOn(d, "c", p, 42)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.N != 400 {
		t.Errorf("N = %d", st.N)
	}
	if math.Abs(st.K-30)/30 > 0.15 {
		t.Errorf("K = %v, want ≈ 30", st.K)
	}
	// Vocabulary coverage: Zipf sampling reaches a large share of T for
	// N·K ≫ T.
	if st.T < 500 || st.T > 2000 {
		t.Errorf("T = %d, want within (500, 2000]", st.T)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Name: "det", NumDocs: 50, TermsPerDoc: 10, DistinctTerms: 300}
	d := iosim.NewDisk()
	c1, err := GenerateOn(d, "a", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenerateOn(d, "b", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Stats() != c2.Stats() {
		t.Errorf("same seed, different stats: %+v vs %+v", c1.Stats(), c2.Stats())
	}
	for id := uint32(0); id < 50; id++ {
		a, err1 := c1.Fetch(id)
		b, err2 := c2.Fetch(id)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a.Cells) != len(b.Cells) {
			t.Fatalf("doc %d differs", id)
		}
		for i := range a.Cells {
			if a.Cells[i] != b.Cells[i] {
				t.Fatalf("doc %d cell %d differs", id, i)
			}
		}
	}
	c3, err := GenerateOn(d, "c", p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Stats() == c1.Stats() {
		t.Error("different seeds produced identical stats (suspicious)")
	}
}

func TestZipfSkew(t *testing.T) {
	// Document frequencies must be skewed: the most frequent term should
	// appear in far more documents than the median term.
	p := Profile{Name: "skew", NumDocs: 300, TermsPerDoc: 20, DistinctTerms: 1000}
	d := iosim.NewDisk()
	c, err := GenerateOn(d, "c", p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var maxDF, totalDF int64
	terms := c.Terms()
	for _, term := range terms {
		df := c.DF(term)
		totalDF += df
		if df > maxDF {
			maxDF = df
		}
	}
	meanDF := float64(totalDF) / float64(len(terms))
	if float64(maxDF) < 5*meanDF {
		t.Errorf("max df %d not skewed vs mean %.1f", maxDF, meanDF)
	}
}

func TestDenseDocsFallback(t *testing.T) {
	// K close to T forces the deterministic vocabulary sweep.
	p := Profile{Name: "dense", NumDocs: 10, TermsPerDoc: 90, DistinctTerms: 100}
	d := iosim.NewDisk()
	c, err := GenerateOn(d, "c", p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().N != 10 {
		t.Errorf("N = %d", c.Stats().N)
	}
	if c.Stats().K < 45 {
		t.Errorf("K = %v, want ≥ K/2", c.Stats().K)
	}
}

func TestWriteReadText(t *testing.T) {
	p := Profile{Name: "txt", NumDocs: 30, TermsPerDoc: 8, DistinctTerms: 200}
	g, err := NewGenerator(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*document.Document
	for id := int64(0); id < p.NumDocs; id++ {
		docs = append(docs, g.Document(uint32(id)))
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, docs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(docs) {
		t.Fatalf("read %d docs, want %d", len(back), len(docs))
	}
	for i := range docs {
		if back[i].ID != docs[i].ID || len(back[i].Cells) != len(docs[i].Cells) {
			t.Fatalf("doc %d differs: %+v vs %+v", i, back[i], docs[i])
		}
		for j := range docs[i].Cells {
			if back[i].Cells[j] != docs[i].Cells[j] {
				t.Errorf("doc %d cell %d differs", i, j)
			}
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	input := "# comment\n\n0 5:2 9:1\n1 3:4\n"
	docs, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].ID != 0 || docs[1].ID != 1 {
		t.Fatalf("docs = %+v", docs)
	}
	if docs[0].Weight(5) != 2 || docs[0].Weight(9) != 1 || docs[1].Weight(3) != 4 {
		t.Error("weights wrong")
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, bad := range []string{"x 1:2", "0 nope", "0 5:bad", "0 5"} {
		if _, err := ReadText(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadText(%q): want error", bad)
		}
	}
}

func TestGenerateClusteredScattered(t *testing.T) {
	d := iosim.NewDisk()
	p := ClusteredProfile{
		Profile: Profile{Name: "pc", NumDocs: 60, TermsPerDoc: 10, DistinctTerms: 600, ZipfS: 1.3, MaxOccurrences: 3},
		Topics:  4,
		Scatter: true,
	}
	f, _ := d.Create("c")
	c, err := GenerateClustered(p, 5, f)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 60 {
		t.Fatalf("N = %d", c.NumDocs())
	}
	// Scatter: consecutive docs belong to different topics, so their
	// dominant term ranges differ for most adjacent pairs.
	topicOf := func(id uint32) int {
		doc, err := c.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		votes := map[int]int{}
		for _, cell := range doc.Cells {
			votes[int(cell.Term)/150]++
		}
		best, bestN := 0, -1
		for k, n := range votes {
			if n > bestN {
				best, bestN = k, n
			}
		}
		return best
	}
	same := 0
	for id := uint32(1); id < 60; id++ {
		if topicOf(id) == topicOf(id-1) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("scattered storage has %d/59 same-topic neighbors, want few", same)
	}
}

func TestGenerateClusteredContiguous(t *testing.T) {
	d := iosim.NewDisk()
	p := ClusteredProfile{
		Profile: Profile{Name: "pc", NumDocs: 40, TermsPerDoc: 8, DistinctTerms: 400},
		Topics:  4,
		Scatter: false,
	}
	f, _ := d.Create("c")
	c, err := GenerateClustered(p, 5, f)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous: docs 0-9 are topic 0, 10-19 topic 1, etc. Check the
	// first doc of each block draws most terms from its topic range.
	for block := 0; block < 4; block++ {
		doc, err := c.Fetch(uint32(block * 10))
		if err != nil {
			t.Fatal(err)
		}
		inRange := 0
		lo, hi := uint32(block*100), uint32((block+1)*100)
		for _, cell := range doc.Cells {
			if cell.Term >= lo && cell.Term < hi {
				inRange++
			}
		}
		if inRange*2 < len(doc.Cells) {
			t.Errorf("block %d doc: %d/%d terms in topic range", block, inRange, len(doc.Cells))
		}
	}
}

func TestGenerateClusteredValidation(t *testing.T) {
	d := iosim.NewDisk()
	base := Profile{Name: "pc", NumDocs: 5, TermsPerDoc: 3, DistinctTerms: 50}
	f1, _ := d.Create("a")
	if _, err := GenerateClustered(ClusteredProfile{Profile: base, Topics: 0}, 1, f1); err == nil {
		t.Error("zero topics: want error")
	}
	if _, err := GenerateClustered(ClusteredProfile{Profile: base, Topics: 2, TopicFraction: 2}, 1, f1); err == nil {
		t.Error("fraction > 1: want error")
	}
	bad := base
	bad.TermsPerDoc = 100
	if _, err := GenerateClustered(ClusteredProfile{Profile: bad, Topics: 2}, 1, f1); err == nil {
		t.Error("K > T: want error")
	}
	// With every term drawn from its topic, a topic narrower than the
	// longest document could never fill it: rejected up front instead of
	// looping forever. K = 50 gives documents of up to 75 terms; 1000
	// terms over 40 topics is 25 per topic.
	narrow := ClusteredProfile{Profile: Profile{Name: "narrow", NumDocs: 20, TermsPerDoc: 50, DistinctTerms: 1000}, Topics: 40, TopicFraction: 1}
	fn, _ := d.Create("narrow")
	if _, err := GenerateClustered(narrow, 1, fn); err == nil || !strings.Contains(err.Error(), "topic width 25") || !strings.Contains(err.Error(), "length 75") {
		t.Errorf("topic narrower than a document at fraction 1: err = %v, want one naming width 25 and length 75", err)
	}
	// A topic one term wider than the longest document fills them all.
	narrow.Topics = 13 // width 76
	fw, _ := d.Create("wide")
	if _, err := GenerateClustered(narrow, 1, fw); err != nil {
		t.Errorf("topic as wide as the longest document: %v", err)
	}
	// More topics than the vocabulary can split still works (width 1).
	f2, _ := d.Create("b")
	tiny := Profile{Name: "tiny", NumDocs: 3, TermsPerDoc: 1, DistinctTerms: 2}
	if _, err := GenerateClustered(ClusteredProfile{Profile: tiny, Topics: 10}, 1, f2); err != nil {
		t.Errorf("narrow topics: %v", err)
	}
}

// Property: generation never produces invalid documents and always matches
// the requested N exactly.
func TestQuickGenerationValid(t *testing.T) {
	check := func(seed int64, nSeed, kSeed, tSeed uint16) bool {
		n := int64(nSeed%80) + 1
		k := float64(kSeed%40) + 1
		vocab := int64(tSeed%3000) + int64(k)*2
		p := Profile{Name: "q", NumDocs: n, TermsPerDoc: k, DistinctTerms: vocab}
		g, err := NewGenerator(p, seed)
		if err != nil {
			return false
		}
		for id := int64(0); id < n; id++ {
			d := g.Document(uint32(id))
			if d.ID != uint32(id) || len(d.Cells) == 0 {
				return false
			}
			if err := d.Validate(); err != nil {
				return false
			}
			for _, c := range d.Cells {
				if int64(c.Term) >= vocab || c.Weight == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
