package invfile

import (
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// TestQuickScanReuseMatchesFetch property-tests the reuse scan path of
// the inverted file: on random corpora and page sizes, the entry sequence
// yielded by NextReuse must be byte-identical to fetching every term
// through the allocating FetchEntry/DecodeRecord path (which reads the
// B+tree for the address instead of scanning).
func TestQuickScanReuseMatchesFetch(t *testing.T) {
	check := func(seed int64, pageSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pageSizes := []int{64, 128, 256, 1024}
		d := iosim.NewDisk(iosim.WithPageSize(pageSizes[int(pageSel)%len(pageSizes)]))
		c := buildCollection(t, d, "c", randomDocs(r, r.Intn(25)+1, 50, 10))
		inv := buildInverted(t, d, c, "c")

		index, err := inv.LoadIndex()
		if err != nil {
			t.Fatal(err)
		}
		sc := inv.Scan()
		for _, leaf := range index.Cells() {
			want, err := inv.FetchEntry(leaf.Term)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.NextReuse()
			if err != nil {
				t.Fatalf("term %d: %v", leaf.Term, err)
			}
			if got.Term != want.Term || len(got.Cells) != len(want.Cells) {
				return false
			}
			for i := range got.Cells {
				if got.Cells[i] != want.Cells[i] {
					return false
				}
			}
		}
		if _, err := sc.NextReuse(); err != io.EOF {
			t.Fatalf("after last entry: %v, want EOF", err)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestScanReuseArenaSemantics pins the reuse contract on the inverted
// file scanner: NextReuse yields one arena entry overwritten per call.
func TestScanReuseArenaSemantics(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	c := buildCollection(t, d, "c", []*document.Document{
		mkdoc(0, 1, 1, 2, 5),
		mkdoc(1, 2, 3, 5, 5),
		mkdoc(2, 1, 3, 4),
	})
	inv := buildInverted(t, d, c, "c")

	sc := inv.Scan()
	first, err := sc.NextReuse()
	if err != nil {
		t.Fatal(err)
	}
	firstTerm := first.Term
	second, err := sc.NextReuse()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("NextReuse yielded distinct entries %p and %p, want one arena", first, second)
	}
	if first.Term == firstTerm {
		t.Fatalf("arena still holds term %d after the next call", firstTerm)
	}

}

// TestFetchEntryIntoAllocs guards the random-fetch twin of the reuse scan:
// fetching every entry of an inverted file whose entries both fit in a page
// and cross pages, into an entry and a scratch buffer large enough for the
// largest, allocates nothing per call — and yields what FetchEntry yields.
func TestFetchEntryIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := iosim.NewDisk(iosim.WithPageSize(256))
	inv := buildInverted(t, d, buildCollection(t, d, "c", randomDocs(r, 300, 200, 40)), "c")
	index, err := inv.LoadIndex()
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	var scratch []byte
	crossing := 0
	for _, leaf := range index.Cells() {
		if pages, _ := inv.EntryPages(leaf.Term); pages > 1 {
			crossing++
		}
		want, err := inv.FetchEntry(leaf.Term)
		if err != nil {
			t.Fatal(err)
		}
		if scratch, err = inv.FetchEntryInto(leaf.Term, &e, scratch); err != nil {
			t.Fatal(err)
		}
		if e.Term != want.Term || !slices.Equal(e.Cells, want.Cells) {
			t.Fatalf("term %d: FetchEntryInto %v, FetchEntry %v", leaf.Term, e, want)
		}
	}
	if crossing == 0 || crossing == len(index.Cells()) {
		t.Fatalf("%d of %d entries cross a page, want some and not all", crossing, len(index.Cells()))
	}
	// The warm-up above grew e and scratch to the largest entry.
	allocs := testing.AllocsPerRun(5, func() {
		for _, leaf := range index.Cells() {
			if scratch, err = inv.FetchEntryInto(leaf.Term, &e, scratch); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d fetches into a warm entry allocate %.0f objects, want 0", len(index.Cells()), allocs)
	}
}

// TestScanReuseSweepAllocs guards the reuse path: a scanner sizes its
// buffers for the file's largest entry, so a sweep by a scanner Reset onto
// the file allocates nothing, at N and 4N documents over a vocabulary
// that grows with them.
func TestScanReuseSweepAllocs(t *testing.T) {
	for _, n := range []int{200, 800} {
		r := rand.New(rand.NewSource(7))
		d := iosim.NewDisk(iosim.WithPageSize(4096))
		inv := buildInverted(t, d, buildCollection(t, d, "c", randomDocs(r, n, 2*n, 40)), "c")
		sc, entries := inv.Scan(), 0
		if got := testing.AllocsPerRun(5, func() {
			sc.Reset(inv)
			for entries = 0; ; entries++ {
				if _, err := sc.NextReuse(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("%d entries: %.0f allocations per sweep, want 0", entries, got)
		}
	}
}
