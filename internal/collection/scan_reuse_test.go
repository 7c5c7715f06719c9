package collection

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// TestQuickScanReuseMatchesFetch property-tests the zero-allocation scan
// path: on random corpora and page sizes, the sequence of documents
// yielded by NextReuse must be byte-identical to fetching every document
// by id through the allocating Fetch/DecodeRecord path.
func TestQuickScanReuseMatchesFetch(t *testing.T) {
	check := func(seed int64, pageSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pageSizes := []int{64, 128, 256, 1024}
		d := iosim.NewDisk(iosim.WithPageSize(pageSizes[int(pageSel)%len(pageSizes)]))
		c := buildDocs(t, d, "c", randomDocs(r, r.Intn(30)+1, 60, 12))

		sc := c.Scan()
		for id := int64(0); id < c.NumDocs(); id++ {
			want, err := c.Fetch(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.NextReuse()
			if err != nil {
				t.Fatalf("doc %d: %v", id, err)
			}
			if got.ID != want.ID || len(got.Cells) != len(want.Cells) {
				return false
			}
			for i := range got.Cells {
				if got.Cells[i] != want.Cells[i] {
					return false
				}
			}
		}
		if _, err := sc.NextReuse(); err != io.EOF {
			t.Fatalf("after last doc: %v, want EOF", err)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestScanReuseArenaSemantics pins the reuse contract: the document
// returned by NextReuse is overwritten by the following call, while Next
// returns stable clones that survive the rest of the scan.
func TestScanReuseArenaSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := iosim.NewDisk(iosim.WithPageSize(128))
	c := buildDocs(t, d, "c", randomDocs(r, 12, 40, 10))

	// Reuse: the arena pointer is the same across calls, and its contents
	// change when the next document differs.
	sc := c.Scan()
	first, err := sc.NextReuse()
	if err != nil {
		t.Fatal(err)
	}
	firstID := first.ID
	second, err := sc.NextReuse()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("NextReuse yielded distinct documents %p and %p, want one arena", first, second)
	}
	if first.ID == firstID {
		t.Fatalf("arena still holds document %d after the next call", firstID)
	}

	// Clone: documents from Next are unaffected by subsequent calls.
	sc2 := c.Scan()
	d0, err := sc2.Next()
	if err != nil {
		t.Fatal(err)
	}
	id0 := d0.ID
	cells0 := append([]document.Cell(nil), d0.Cells...)
	for {
		if _, err := sc2.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if d0.ID != id0 || len(d0.Cells) != len(cells0) {
		t.Fatalf("document from Next mutated by later scanning: id %d -> %d", id0, d0.ID)
	}
	for i := range cells0 {
		if d0.Cells[i] != cells0[i] {
			t.Fatalf("cell %d of retained document mutated", i)
		}
	}
}

// TestScanReuseSweepAllocs guards the reuse path: a scanner sizes its
// buffers for the collection's largest record, so a sweep by a scanner
// Reset onto the collection allocates nothing, at N and 4N documents.
func TestScanReuseSweepAllocs(t *testing.T) {
	for _, n := range []int{200, 800} {
		r := rand.New(rand.NewSource(7))
		d := iosim.NewDisk(iosim.WithPageSize(4096))
		c := buildDocs(t, d, "c", randomDocs(r, n, 400, 40))
		sc := c.Scan()
		if got := testing.AllocsPerRun(5, func() {
			sc.Reset(c, nil)
			for {
				if _, err := sc.NextReuse(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("%d documents: %.0f allocations per sweep, want 0", n, got)
		}
	}
}
