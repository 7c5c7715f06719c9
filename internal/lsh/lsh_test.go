package lsh

import (
	"strings"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// buildColl stores docs (term multisets) on a small disk and returns the
// collection plus its disk.
func buildColl(t *testing.T, pageSize int, docs [][]uint32) (*collection.Collection, *iosim.Disk) {
	t.Helper()
	d := iosim.NewDisk(iosim.WithPageSize(pageSize))
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

var testDocs = [][]uint32{
	{1, 5, 9, 12},
	{5, 9, 12, 100},
	{7, 8},
	{2000},
	{},
	{40000, 40001, 40002},
	{1, 5, 9, 12}, // duplicate of doc 0: identical keys under every config
}

// TestKeysShape pins the basic contract: Bands keys per non-empty
// document, none for an empty one, equal documents → equal keys, and two
// invocations are bit-identical (seed determinism).
func TestKeysShape(t *testing.T) {
	for _, cfg := range []Config{{}, {Bands: 4, Rows: 3}, {Bands: 1, Rows: 1, Seed: 77}} {
		eff := cfg.withDefaults()
		var keys [][]uint64
		for i, terms := range testDocs {
			counts := make(map[uint32]int)
			for _, term := range terms {
				counts[term]++
			}
			d := document.New(uint32(i), counts)
			k := cfg.Keys(d, nil)
			if len(terms) == 0 {
				if len(k) != 0 {
					t.Fatalf("cfg %+v: empty doc got %d keys", cfg, len(k))
				}
			} else if len(k) != eff.Bands {
				t.Fatalf("cfg %+v: doc %d got %d keys, want %d", cfg, i, len(k), eff.Bands)
			}
			again := cfg.Keys(d, nil)
			for j := range k {
				if k[j] != again[j] {
					t.Fatalf("cfg %+v: doc %d keys differ across invocations", cfg, i)
				}
			}
			keys = append(keys, append([]uint64(nil), k...))
		}
		// Docs 0 and 6 hold the same term set.
		for j := range keys[0] {
			if keys[0][j] != keys[6][j] {
				t.Fatalf("cfg %+v: identical documents produced different keys", cfg)
			}
		}
	}
}

// TestKeysSeedSensitivity ensures different seeds actually reshuffle the
// buckets — equal output under different seeds would mean the seed is
// ignored.
func TestKeysSeedSensitivity(t *testing.T) {
	d := document.New(0, map[uint32]int{1: 1, 5: 2, 9: 1})
	a := Config{Seed: 1}.Keys(d, nil)
	b := Config{Seed: 2}.Keys(d, nil)
	same := true
	for j := range a {
		if a[j] != b[j] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical band keys")
	}
}

// TestRoundTrip pins that Open returns exactly what Build wrote: config,
// per-document keys and bucket membership.
func TestRoundTrip(t *testing.T) {
	c, d := buildColl(t, 128, testDocs)
	f, err := d.Create("c.lsh")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Bands: 8, Rows: 2, Seed: 42}
	built, err := Build(c, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d.Open("c.lsh")
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
	if opened.NumDocs() != built.NumDocs() {
		t.Fatalf("numDocs mismatch: %d vs %d", opened.NumDocs(), built.NumDocs())
	}
	for i := range testDocs {
		a, b := built.DocKeys(uint32(i)), opened.DocKeys(uint32(i))
		if len(a) != len(b) {
			t.Fatalf("doc %d: key count %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("doc %d key %d differs after round trip", i, j)
			}
		}
		for b2, key := range a {
			ma, mb := built.Bucket(b2, key), opened.Bucket(b2, key)
			if len(ma) != len(mb) {
				t.Fatalf("doc %d band %d bucket size %d vs %d", i, b2, len(ma), len(mb))
			}
			for k := range ma {
				if ma[k] != mb[k] {
					t.Fatalf("doc %d band %d bucket member %d differs", i, b2, k)
				}
			}
		}
	}
	// The empty document must be bucketless on both sides.
	if built.DocKeys(4) != nil || opened.DocKeys(4) != nil {
		t.Fatal("empty document has band keys")
	}
}

// TestBuildKeysMatchPerDoc verifies Build's term-major batch path against
// the per-document Keys path over a real collection.
func TestBuildKeysMatchPerDoc(t *testing.T) {
	c, d := buildColl(t, 128, testDocs)
	f, err := d.Create("c.lsh")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Bands: 6, Rows: 3, Seed: 9}
	sc, err := Build(c, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, terms := range testDocs {
		counts := make(map[uint32]int)
		for _, term := range terms {
			counts[term]++
		}
		want := cfg.Keys(document.New(uint32(i), counts), nil)
		got := sc.DocKeys(uint32(i))
		if len(terms) == 0 {
			if got != nil {
				t.Fatalf("doc %d: empty doc has sidecar keys", i)
			}
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("doc %d band %d: sidecar %x, per-doc %x", i, j, got[j], want[j])
			}
		}
	}
}

// TestBucketsSorted pins that every bucket lists its members in ascending
// id order — the joins rely on it for deterministic candidate order.
func TestBucketsSorted(t *testing.T) {
	docs := make([][]uint32, 64)
	for i := range docs {
		docs[i] = []uint32{uint32(i % 7), uint32(i % 5), uint32(100 + i%3)}
	}
	c, d := buildColl(t, 64, docs)
	f, err := d.Create("c.lsh")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(c, f, Config{Bands: 4, Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < sc.NumDocs(); id++ {
		for b, key := range sc.DocKeys(uint32(id)) {
			members := sc.Bucket(b, key)
			for k := 1; k < len(members); k++ {
				if members[k-1] >= members[k] {
					t.Fatalf("band %d key %x: members not ascending: %v", b, key, members)
				}
			}
		}
	}
}

// TestBuildRequiresEmptyFile mirrors the signature sidecar contract.
func TestBuildRequiresEmptyFile(t *testing.T) {
	c, d := buildColl(t, 128, testDocs)
	f, err := d.Create("c.lsh")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, f, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, f, Config{}); err == nil || !strings.Contains(err.Error(), "must be empty") {
		t.Fatalf("second build on the same file: err = %v, want must-be-empty", err)
	}
}

// TestOpenRejectsCorruption covers the parse error paths.
func TestOpenRejectsCorruption(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	writeFile := func(name string, data []byte) *iosim.File {
		t.Helper()
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		w := f.Writer()
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	// A zero-page file has no header at all. (A partially written page
	// still reads back page-sized, so only an empty file is "short".)
	empty, err := d.Create("empty")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil || !strings.Contains(err.Error(), "truncated header") {
		t.Errorf("empty: err = %v, want truncated header", err)
	}
	f0 := writeFile("magic", make([]byte, headerSize))
	if _, err := Open(f0); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("magic: err = %v, want bad magic", err)
	}
	// Valid magic, wrong version.
	bad := make([]byte, headerSize)
	bad[0], bad[1], bad[2], bad[3] = 0x48, 0x4c, 0x4a, 0x54 // "TJLH" LE
	bad[4] = 99
	f := writeFile("version", bad)
	if _, err := Open(f); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("version: err = %v, want unsupported version", err)
	}
	// Valid header claiming more docs than the body holds.
	bad = make([]byte, headerSize)
	bad[0], bad[1], bad[2], bad[3] = 0x48, 0x4c, 0x4a, 0x54
	bad[4] = version
	bad[8] = 16  // bands
	bad[12] = 2  // rows
	bad[16] = 50 // numDocs, body absent
	f = writeFile("body", bad)
	if _, err := Open(f); err == nil || !strings.Contains(err.Error(), "truncated body") {
		t.Errorf("body: err = %v, want truncated body", err)
	}
}

// TestSelfProbe sanity-checks the planner measurement: duplicated
// documents must probe each other, and the fractions stay in range.
func TestSelfProbe(t *testing.T) {
	docs := make([][]uint32, 32)
	for i := range docs {
		// Two identical cohorts → every doc has at least 15 certain
		// candidates besides itself.
		base := uint32(i % 2 * 1000)
		docs[i] = []uint32{base + 1, base + 2, base + 3}
	}
	c, d := buildColl(t, 64, docs)
	f, err := d.Create("c.lsh")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(c, f, Config{Bands: 8, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	candFrac, runs := sc.SelfProbe()
	if candFrac < 0.5 || candFrac > 1 {
		t.Errorf("candFrac = %v, want [0.5, 1] for two identical cohorts", candFrac)
	}
	if runs <= 0 || runs > float64(sc.NumDocs()) {
		t.Errorf("runs = %v out of range", runs)
	}
	// Deterministic: a second probe returns the same numbers.
	c2, r2 := sc.SelfProbe()
	if c2 != candFrac || r2 != runs {
		t.Errorf("SelfProbe not deterministic: (%v,%v) vs (%v,%v)", candFrac, runs, c2, r2)
	}
}
