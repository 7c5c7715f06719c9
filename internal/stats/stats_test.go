package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/collection"
	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

func build(t testing.TB, d *iosim.Disk, name string, docs []*document.Document) *collection.Collection {
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

func mkdoc(id uint32, terms ...uint32) *document.Document {
	counts := make(map[uint32]int, len(terms))
	for _, t := range terms {
		counts[t]++
	}
	return document.New(id, counts)
}

func TestOverlapQExact(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	inner := build(t, d, "inner", []*document.Document{mkdoc(0, 1, 2, 3)})
	outer := build(t, d, "outer", []*document.Document{mkdoc(0, 2, 3, 4, 5)})
	// Outer vocabulary {2,3,4,5}; {2,3} also in inner => q = 0.5.
	if got := OverlapQ(inner, outer); got != 0.5 {
		t.Errorf("OverlapQ = %v, want 0.5", got)
	}
	// And p, the reverse direction: inner {1,2,3}, 2 of 3 in outer.
	if got := OverlapQ(outer, inner); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("p = %v, want 2/3", got)
	}
}

func TestOverlapQEmpty(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	empty := build(t, d, "empty", nil)
	full := build(t, d, "full", []*document.Document{mkdoc(0, 1)})
	if got := OverlapQ(full, empty); got != 0 {
		t.Errorf("empty outer q = %v", got)
	}
	if got := OverlapQ(empty, full); got != 0 {
		t.Errorf("empty inner q = %v", got)
	}
}

func TestOverlapQReader(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	inner := build(t, d, "inner", []*document.Document{mkdoc(0, 1, 2, 3)})
	outer := build(t, d, "outer", []*document.Document{mkdoc(0, 2, 3, 4, 5)})
	// Full collection as Reader matches OverlapQ.
	if got := OverlapQReader(inner, outer); got != 0.5 {
		t.Errorf("reader q = %v, want 0.5", got)
	}
	// A subset measures over the base vocabulary (the IR system's
	// stored statistics).
	sub, err := outer.Subset([]uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := OverlapQReader(inner, sub); got != 0.5 {
		t.Errorf("subset q = %v, want 0.5", got)
	}
	// A batch measures over its own explicitly collected vocabulary.
	batch, err := collection.NewBatch("b", []*document.Document{mkdoc(0, 3, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if got := OverlapQReader(inner, batch); got != 0.5 {
		t.Errorf("batch q = %v, want 0.5", got)
	}
	empty, err := collection.NewBatch("e", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := OverlapQReader(inner, empty); got != 0 {
		t.Errorf("empty batch q = %v", got)
	}
}

func TestDeltaDegenerate(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	empty := build(t, d, "empty", nil)
	full := build(t, d, "full", []*document.Document{mkdoc(0, 1)})
	if got := Delta(empty, full); got != 0 {
		t.Errorf("Delta with empty = %v", got)
	}
	// Identical single docs always share terms: δ = 1.
	one := build(t, d, "one", []*document.Document{mkdoc(0, 7)})
	two := build(t, d, "two", []*document.Document{mkdoc(0, 7)})
	if got := Delta(one, two); math.Abs(got-1) > 1e-9 {
		t.Errorf("Delta identical singletons = %v, want 1", got)
	}
	// Disjoint vocabularies: δ = 0.
	three := build(t, d, "three", []*document.Document{mkdoc(0, 99)})
	if got := Delta(one, three); got != 0 {
		t.Errorf("Delta disjoint = %v, want 0", got)
	}
}

func TestDeltaAgainstExact(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	p := corpus.Profile{Name: "a", NumDocs: 120, TermsPerDoc: 12, DistinctTerms: 600}
	c1, err := corpus.GenerateOn(d, "c1", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := corpus.GenerateOn(d, "c2", p, 2)
	if err != nil {
		t.Fatal(err)
	}
	est := Delta(c1, c2)
	exact, err := DeltaExact(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || est > 1 || exact <= 0 || exact > 1 {
		t.Fatalf("est=%v exact=%v out of range", est, exact)
	}
	// The independence estimate tracks the exact value closely on Zipf
	// corpora (terms are not independent, so allow a generous band).
	if est < exact*0.5 || est > exact*1.5 {
		t.Errorf("Delta estimate %v vs exact %v (off by more than 50%%)", est, exact)
	}
	t.Logf("delta: estimate=%.4f exact=%.4f", est, exact)
}

// TestDeltaIsDeterministic pins Delta's summation order: over a sparse Zipf
// pair, 50 calls in either argument order must give one bit pattern.
// Summing while ranging a map gave a different one on most calls.
func TestDeltaIsDeterministic(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	p := corpus.Profile{Name: "sparse", NumDocs: 2000, TermsPerDoc: 4, DistinctTerms: 60000}
	c1, err := corpus.GenerateOn(d, "c1", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := corpus.GenerateOn(d, "c2", p, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Float64bits(Delta(c1, c2))
	for i := 0; i < 50; i++ {
		a, b := c1, c2
		if i%2 == 1 {
			a, b = c2, c1
		}
		if got := math.Float64bits(Delta(a, b)); got != want {
			t.Fatalf("call %d: Delta = %v, first call %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

func TestDeltaExactEmpty(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	empty := build(t, d, "empty", nil)
	full := build(t, d, "full", []*document.Document{mkdoc(0, 1)})
	got, err := DeltaExact(empty, full)
	if err != nil || got != 0 {
		t.Errorf("DeltaExact = %v, %v", got, err)
	}
}

// Property: both statistics stay in [0,1], OverlapQ is 1 for identical
// collections, and Delta never exceeds the overlap-implied upper bound of
// 1.
func TestQuickRanges(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := iosim.NewDisk(iosim.WithPageSize(256))
		mk := func(name string) *collection.Collection {
			docs := make([]*document.Document, r.Intn(20)+1)
			for i := range docs {
				counts := make(map[uint32]int)
				for j := 0; j < r.Intn(8)+1; j++ {
					counts[uint32(r.Intn(40))]++
				}
				docs[i] = document.New(uint32(i), counts)
			}
			f, _ := d.Create(name)
			b, _ := collection.NewBuilder(name, f)
			for _, doc := range docs {
				if err := b.Add(doc); err != nil {
					return nil
				}
			}
			c, err := b.Finish()
			if err != nil {
				return nil
			}
			return c
		}
		c1 := mk("c1")
		c2 := mk("c2")
		if c1 == nil || c2 == nil {
			return false
		}
		q := OverlapQ(c1, c2)
		delta := Delta(c1, c2)
		if q < 0 || q > 1 || delta < 0 || delta > 1 {
			return false
		}
		if OverlapQ(c1, c1) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
