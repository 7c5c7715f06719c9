package document

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/codec"
)

func doc(id uint32, pairs ...uint32) *Document {
	cells := make([]Cell, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		cells = append(cells, Cell{Term: pairs[i], Weight: uint16(pairs[i+1])})
	}
	return &Document{ID: id, Cells: cells}
}

func TestNewMergesAndSorts(t *testing.T) {
	d := New(3, map[uint32]int{7: 2, 1: 5, 4: 1, 9: 0, 2: -3})
	if d.ID != 3 {
		t.Errorf("ID = %d", d.ID)
	}
	want := []Cell{{1, 5}, {4, 1}, {7, 2}}
	if len(d.Cells) != len(want) {
		t.Fatalf("cells = %v, want %v", d.Cells, want)
	}
	for i := range want {
		if d.Cells[i] != want[i] {
			t.Errorf("cell %d = %v, want %v", i, d.Cells[i], want[i])
		}
	}
	if d.Terms() != 3 {
		t.Errorf("Terms = %d", d.Terms())
	}
}

func TestNewClampsWeights(t *testing.T) {
	d := New(0, map[uint32]int{1: 1 << 20})
	if d.Cells[0].Weight != codec.MaxWeight {
		t.Errorf("weight = %d, want clamped %d", d.Cells[0].Weight, codec.MaxWeight)
	}
}

func TestWeightLookup(t *testing.T) {
	d := doc(1, 2, 10, 5, 20, 9, 30)
	cases := []struct {
		term uint32
		want uint16
	}{{2, 10}, {5, 20}, {9, 30}, {1, 0}, {4, 0}, {100, 0}}
	for _, c := range cases {
		if got := d.Weight(c.term); got != c.want {
			t.Errorf("Weight(%d) = %d, want %d", c.term, got, c.want)
		}
	}
}

func TestNorm(t *testing.T) {
	d := doc(1, 1, 3, 2, 4)
	if got := d.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := (&Document{}).Norm(); got != 0 {
		t.Errorf("empty Norm = %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := doc(1, 1, 1, 2, 1).Validate(); err != nil {
		t.Errorf("valid doc: %v", err)
	}
	if err := doc(1, 2, 1, 2, 1).Validate(); err == nil {
		t.Error("duplicate terms: want error")
	}
	if err := doc(1, 5, 1, 2, 1).Validate(); err == nil {
		t.Error("descending terms: want error")
	}
	if err := (&Document{ID: codec.MaxNumber + 1}).Validate(); err == nil {
		t.Error("oversized id: want error")
	}
	big := &Document{ID: 1, Cells: []Cell{{Term: codec.MaxNumber + 1, Weight: 1}}}
	if err := big.Validate(); err == nil {
		t.Error("oversized term: want error")
	}
}

func TestSimilarityExamples(t *testing.T) {
	d1 := doc(1, 1, 2, 3, 4, 5, 1)
	d2 := doc(2, 3, 5, 5, 2, 9, 7)
	// common terms: 3 (4·5) and 5 (1·2) => 22
	if got := Similarity(d1, d2); got != 22 {
		t.Errorf("Similarity = %v, want 22", got)
	}
	if got := Similarity(d1, doc(3, 100, 1)); got != 0 {
		t.Errorf("disjoint Similarity = %v, want 0", got)
	}
	if got := Similarity(&Document{}, d1); got != 0 {
		t.Errorf("empty Similarity = %v, want 0", got)
	}
	if got := CommonTerms(d1, d2); got != 2 {
		t.Errorf("CommonTerms = %d, want 2", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	d := doc(12, 3, 7, 10, 2)
	back := FromRecord(codec.Record{Number: 12, Cells: []codec.Cell{{Number: 3, Weight: 7}, {Number: 10, Weight: 2}}})
	if back.ID != d.ID || len(back.Cells) != len(d.Cells) {
		t.Fatalf("round trip = %+v", back)
	}
	for i := range d.Cells {
		if back.Cells[i] != d.Cells[i] {
			t.Errorf("cell %d = %v, want %v", i, back.Cells[i], d.Cells[i])
		}
	}
	if d.EncodedSize() != codec.EncodedRecordSize(2) {
		t.Errorf("EncodedSize = %d", d.EncodedSize())
	}
}

func TestIDF(t *testing.T) {
	if got := IDF(100, 0); got != 0 {
		t.Errorf("IDF df=0 = %v", got)
	}
	if got := IDF(0, 5); got != 0 {
		t.Errorf("IDF n=0 = %v", got)
	}
	rare := IDF(1000, 1)
	common := IDF(1000, 900)
	if rare <= common {
		t.Errorf("IDF rare=%v should exceed common=%v", rare, common)
	}
}

func TestWeightingString(t *testing.T) {
	for _, c := range []struct {
		w    Weighting
		want string
	}{{RawTF, "raw"}, {Cosine, "cosine"}, {TFIDF, "tfidf"}, {Weighting(9), "Weighting(9)"}} {
		if got := c.w.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int(c.w), got, c.want)
		}
	}
}

func TestParseWeighting(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Weighting
		ok   bool
	}{{"raw", RawTF, true}, {"", RawTF, true}, {"cosine", Cosine, true}, {"tfidf", TFIDF, true}, {"bogus", RawTF, false}} {
		got, err := ParseWeighting(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseWeighting(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestScorerValidation(t *testing.T) {
	if _, err := NewScorer(Cosine, nil, nil, nil); err == nil {
		t.Error("cosine without norms: want error")
	}
	if _, err := NewScorer(TFIDF, nil, nil, nil); err == nil {
		t.Error("tfidf without idf: want error")
	}
	if _, err := NewScorer(Weighting(42), nil, nil, nil); err == nil {
		t.Error("unknown weighting: want error")
	}
	s, err := NewScorer(RawTF, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Weighting() != RawTF {
		t.Errorf("Weighting = %v", s.Weighting())
	}
}

func TestScorerRaw(t *testing.T) {
	s, _ := NewScorer(RawTF, nil, nil, nil)
	d1 := doc(1, 1, 2, 3, 4)
	d2 := doc(2, 3, 5)
	if got := s.Score(d1, d2); got != 20 {
		t.Errorf("Score = %v, want 20", got)
	}
	if s.TermFactor(3) != 1 {
		t.Errorf("TermFactor = %v, want 1", s.TermFactor(3))
	}
	if outer, inner := s.Norms(); outer != nil || inner != nil {
		t.Errorf("Norms = %v, %v; want none", outer, inner)
	}
}

func TestScorerCosine(t *testing.T) {
	d1 := doc(1, 1, 3, 2, 4) // norm 5
	d2 := doc(2, 1, 6, 2, 8) // norm 10
	s, err := NewScorer(Cosine, nil, []float64{d1.Norm()}, []float64{2: d2.Norm()})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Score(d1, d2)
	if math.Abs(got-1) > 1e-12 { // parallel vectors => cosine 1
		t.Errorf("cosine Score = %v, want 1", got)
	}
	// A zero norm is zero similarity rather than a division by 0.
	for _, norms := range [][2]float64{{0, 10}, {5, 0}, {0, 0}} {
		if got := Finalize(10, norms[0], norms[1]); got != 0 {
			t.Errorf("Finalize(10, %v, %v) = %v, want 0", norms[0], norms[1], got)
		}
	}
	if got := Finalize(10, 5, 10); got != 10.0/50 {
		t.Errorf("Finalize(10, 5, 10) = %v, want 0.2", got)
	}
	if outer, inner := s.Norms(); len(outer) != 1 || outer[0] != 5 || len(inner) != 3 || inner[2] != 10 {
		t.Errorf("Norms = %v, %v", outer, inner)
	}
}

// TestCosineAdmissionAtTheBar: a pair whose similarity is exactly the bar
// is admitted and finishes at it; the next raw score down by one ulp
// finishes below the bar, and the rule, which leaves 2⁻⁴⁸ of room, still
// admits it (it is Offer's test that turns it away).
func TestCosineAdmissionAtTheBar(t *testing.T) {
	o, ni := 5.0, 10.0
	raw := 20.0
	bar := Finalize(raw, o, ni)
	limit := Limit(bar, o)
	if !Admits(raw, limit, ni) {
		t.Fatalf("a pair at the bar %v is refused", bar)
	}
	below := math.Nextafter(raw, 0)
	if sim := Finalize(below, o, ni); sim >= bar {
		t.Fatalf("Finalize one ulp below = %v, want < %v", sim, bar)
	}
	if !Admits(below, limit, ni) {
		t.Errorf("one ulp below the bar is refused; the rule leaves 2⁻⁴⁸ of room")
	}
	if far := raw * (1 - 0x1p-40); Admits(far, limit, ni) {
		t.Errorf("a pair 2⁻⁴⁰ below the bar is admitted")
	}
	if !Admits(1, Limit(bar, 0), 0) || Finalize(1, 0, 0) != 0 {
		t.Errorf("zero norms: want admitted and finalized to 0")
	}
}

func TestScorerTFIDF(t *testing.T) {
	idf := []float64{1: 2, 2: 0.5}
	s, err := NewScorer(TFIDF, idf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1 := doc(1, 1, 1, 2, 2)
	d2 := doc(2, 1, 3, 2, 4)
	// term 1: 1·3·2² = 12 ; term 2: 2·4·0.5² = 2 ; total 14
	if got := s.Score(d1, d2); math.Abs(got-14) > 1e-12 {
		t.Errorf("tfidf Score = %v, want 14", got)
	}
	if got := s.TermFactor(1); got != 4 {
		t.Errorf("TermFactor(1) = %v, want 4", got)
	}
	if got := s.TermFactor(999); got != 0 {
		t.Errorf("TermFactor(unknown) = %v, want 0", got)
	}
	if outer, inner := s.Norms(); outer != nil || inner != nil {
		t.Errorf("Norms = %v, %v; want none", outer, inner)
	}
}

func randomDoc(r *rand.Rand, id uint32, vocab int) *Document {
	counts := make(map[uint32]int)
	for i, n := 0, r.Intn(30); i < n; i++ {
		counts[uint32(r.Intn(vocab))] = 1 + r.Intn(5)
	}
	return New(id, counts)
}

// Property: merge-based similarity equals the naive map-based dot product.
func TestQuickSimilarityAgainstNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDoc(r, 1, 40)
		b := randomDoc(r, 2, 40)
		naive := 0.0
		m := make(map[uint32]uint16)
		for _, c := range a.Cells {
			m[c.Term] = c.Weight
		}
		for _, c := range b.Cells {
			if w, ok := m[c.Term]; ok {
				naive += float64(w) * float64(c.Weight)
			}
		}
		return Similarity(a, b) == naive
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: similarity is symmetric and non-negative; self-similarity
// equals the squared norm.
func TestQuickSimilarityAlgebra(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDoc(r, 1, 25)
		b := randomDoc(r, 2, 25)
		s1, s2 := Similarity(a, b), Similarity(b, a)
		self := Similarity(a, a)
		norm := a.Norm()
		return s1 == s2 && s1 >= 0 && math.Abs(self-norm*norm) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
