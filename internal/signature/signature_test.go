package signature

import (
	"testing"
	"time"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// buildColl stores docs (term sets) on a small disk and returns the
// collection plus its disk.
func buildColl(t *testing.T, pageSize int, docs [][]uint32, opts ...iosim.Option) (*collection.Collection, *iosim.Disk) {
	t.Helper()
	d := iosim.NewDisk(append([]iosim.Option{iosim.WithPageSize(pageSize)}, opts...)...)
	f, err := d.Create("c.col")
	if err != nil {
		t.Fatal(err)
	}
	b, err := collection.NewBuilder("c", f)
	if err != nil {
		t.Fatal(err)
	}
	for i, terms := range docs {
		counts := make(map[uint32]int, len(terms))
		for _, term := range terms {
			counts[term]++
		}
		if err := b.Add(document.New(uint32(i), counts)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

// TestNoFalseNegatives is the package invariant: documents sharing a
// term always have overlapping signatures, under every configuration.
func TestNoFalseNegatives(t *testing.T) {
	docs := [][]uint32{
		{1, 5, 9},
		{5, 100, 2000},
		{7, 8},
		{2000},
		{},
		{40000, 40001, 40002},
	}
	c, d := buildColl(t, 256, docs)
	for _, cfg := range []Config{{}, {Bits: 64, Hashes: 1}, {Bits: 100, Hashes: 3, Granularity: 7, ClusterDocs: 2}} {
		f, err := d.Create("c.sig")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Build(c, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range docs {
			for j := range docs {
				shared := false
				for _, a := range docs[i] {
					for _, b := range docs[j] {
						if a == b {
							shared = true
						}
					}
				}
				got := Overlaps(sc.Doc(uint32(i)), sc.Doc(uint32(j)))
				if shared && !got {
					t.Fatalf("cfg %+v: docs %d,%d share a term but signatures are disjoint", cfg, i, j)
				}
			}
		}
		// Aggregates must cover their members.
		for i := range docs {
			id := uint32(i)
			if !Zero(sc.Doc(id)) {
				if !Overlaps(sc.Cluster(sc.ClusterOf(id)), sc.Doc(id)) {
					t.Fatalf("cfg %+v: cluster aggregate misses doc %d", cfg, i)
				}
				if !Overlaps(sc.Root(), sc.Doc(id)) {
					t.Fatalf("cfg %+v: root aggregate misses doc %d", cfg, i)
				}
				ref, err := c.Ref(id)
				if err != nil {
					t.Fatal(err)
				}
				ps := int64(c.File().PageSize())
				for p := ref.Off / ps; p <= (ref.Off+int64(ref.Len)-1)/ps; p++ {
					if !Overlaps(sc.Page(p), sc.Doc(id)) {
						t.Fatalf("cfg %+v: page aggregate %d misses doc %d", cfg, p, i)
					}
				}
			}
		}
		if err := d.Remove("c.sig"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundTrip pins that Open returns exactly what Build wrote.
func TestRoundTrip(t *testing.T) {
	docs := [][]uint32{{1, 2, 3}, {3, 4}, {1000, 2000, 3000}, {7}, {8, 9, 10, 11}}
	c, d := buildColl(t, 128, docs)
	f, err := d.Create("c.sig")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Bits: 192, Hashes: 2, Granularity: 3, ClusterDocs: 2}
	built, err := Build(c, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d.Open("c.sig")
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(f2)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Config() != built.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", opened.Config(), built.Config())
	}
	if opened.NumDocs() != built.NumDocs() || opened.NumPages() != built.NumPages() || opened.NumClusters() != built.NumClusters() {
		t.Fatalf("shape mismatch")
	}
	for i := 0; i < built.NumDocs(); i++ {
		for w, v := range built.Doc(uint32(i)) {
			if opened.Doc(uint32(i))[w] != v {
				t.Fatalf("doc %d word %d differs", i, w)
			}
		}
	}
	for p := int64(0); p < built.NumPages(); p++ {
		for w, v := range built.Page(p) {
			if opened.Page(p)[w] != v {
				t.Fatalf("page %d word %d differs", p, w)
			}
		}
	}
	for i := 0; i < built.NumClusters(); i++ {
		for w, v := range built.Cluster(i) {
			if opened.Cluster(i)[w] != v {
				t.Fatalf("cluster %d word %d differs", i, w)
			}
		}
	}
	for w, v := range built.Root() {
		if opened.Root()[w] != v {
			t.Fatalf("root word %d differs", w)
		}
	}
}

// TestSkipMeasures sanity-checks the planner-facing skip measurements on
// a layout with two disjoint term ranges.
func TestSkipMeasures(t *testing.T) {
	var docs [][]uint32
	for i := 0; i < 32; i++ {
		base := uint32(0)
		if i >= 16 {
			base = 1 << 20
		}
		docs = append(docs, []uint32{base + uint32(3*i), base + uint32(3*i+1), base + uint32(3*i+2)})
	}
	c, d := buildColl(t, 64, docs)
	f, err := d.Create("c.sig")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(c, f, Config{Bits: 4096, Hashes: 1, ClusterDocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := sc.Doc(0) // first-range query: second-range pages must be skippable
	skipped, runs := sc.PageSkip(q)
	if skipped <= 0 || runs <= 0 {
		t.Fatalf("PageSkip = (%d, %d), want positive skip and runs", skipped, runs)
	}
	if skipped+runs > sc.NumPages()+runs {
		t.Fatalf("impossible page accounting")
	}
}

// TestOpenPaysReadDelay: loading a sidecar reads its pages like any other
// read, so on a delayed disk each page costs the delay, and the I/O
// accounting is what a free disk reports.
func TestOpenPaysReadDelay(t *testing.T) {
	const delay = 2 * time.Millisecond
	open := func(opts ...iosim.Option) (iosim.Stats, time.Duration, int64) {
		c, d := buildColl(t, 128, [][]uint32{{1, 2, 3}, {3, 4}, {1000, 2000, 3000}, {7}, {8, 9, 10, 11}}, opts...)
		f, err := d.Create("c.sig")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(c, f, Config{Bits: 192, Hashes: 2, Granularity: 3, ClusterDocs: 2}); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		d.ParkHeads()
		begin := time.Now()
		if _, err := Open(f); err != nil {
			t.Fatal(err)
		}
		return d.Stats(), time.Since(begin), f.Pages()
	}
	slow, took, pages := open(iosim.WithReadDelay(delay))
	free, _, _ := open()
	if pages < 2 || took < time.Duration(pages)*delay {
		t.Errorf("opening a %d-page sidecar took %v, want at least %v", pages, took, time.Duration(pages)*delay)
	}
	if slow != free || free.Reads() != pages {
		t.Errorf("delayed open read %+v, free %+v, want %d pages each", slow, free, pages)
	}
}
