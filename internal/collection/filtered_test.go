package collection

import (
	"io"
	"testing"

	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

const filteredDocs = 40

// filteredCollection stores 40 documents of varied sizes on 64-byte
// pages, so that some span several pages and keep-gaps span pages.
func filteredCollection(t *testing.T) (*Collection, *iosim.Disk) {
	d := newDisk(64)
	docs := make([]*document.Document, filteredDocs)
	for i := range docs {
		counts := map[uint32]int{}
		for j := 0; j <= (i*7)%23; j++ {
			counts[uint32(i*31+j)] = 1 + j%3
		}
		docs[i] = document.New(uint32(i), counts)
	}
	return buildDocs(t, d, "c", docs), d
}

// filteredKeeps are the keep predicates both filtered-scan tests run.
var filteredKeeps = map[string]func(uint32) bool{
	"all":       nil,
	"none":      func(uint32) bool { return false },
	"even":      func(id uint32) bool { return id%2 == 0 },
	"sparse":    func(id uint32) bool { return id%7 == 3 },
	"tail-half": func(id uint32) bool { return id >= filteredDocs/2 },
}

// TestScanFiltered pins the filtered scan against the plain scan for
// several keep predicates, including multi-page records and keep-gaps
// spanning pages.
func TestScanFiltered(t *testing.T) {
	c, _ := filteredCollection(t)
	want := make(map[uint32]*document.Document)
	sc := c.Scan()
	for {
		doc, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want[doc.ID] = doc
	}

	for name, keep := range filteredKeeps {
		fs := c.ScanFiltered(keep)
		seen := 0
		for {
			doc, err := fs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if keep != nil && !keep(doc.ID) {
				t.Fatalf("%s: yielded filtered-out doc %d", name, doc.ID)
			}
			w := want[doc.ID]
			if len(doc.Cells) != len(w.Cells) {
				t.Fatalf("%s: doc %d has %d cells, want %d", name, doc.ID, len(doc.Cells), len(w.Cells))
			}
			for i, cell := range doc.Cells {
				if cell != w.Cells[i] {
					t.Fatalf("%s: doc %d cell %d = %+v, want %+v", name, doc.ID, i, cell, w.Cells[i])
				}
			}
			seen++
		}
		wantSeen := 0
		for id := uint32(0); id < filteredDocs; id++ {
			if keep == nil || keep(id) {
				wantSeen++
			}
		}
		if seen != wantSeen {
			t.Fatalf("%s: yielded %d docs, want %d", name, seen, wantSeen)
		}
	}
}

// TestScanFilteredReadsFewerPages pins what a filtered scan reads: exactly
// the pages its kept documents span, each once, and nothing else. From a
// parked head, every maximal run of consecutive touched pages costs one
// random read and the rest of the run sequential ones. A plain Scan reads
// what ScanFiltered(nil) reads: all D pages, one random read and D − 1
// sequential ones.
func TestScanFilteredReadsFewerPages(t *testing.T) {
	c, d := filteredCollection(t)
	drain := func(sc *Scanner) iosim.Stats {
		d.ResetStats()
		d.ParkHeads()
		for {
			if _, err := sc.NextReuse(); err == io.EOF {
				return d.Stats()
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	ps := int64(c.Stats().PageSize)
	for name, keep := range filteredKeeps {
		touched := map[int64]bool{}
		for id, ref := range c.refs {
			if keep == nil || keep(uint32(id)) {
				for p := ref.Off / ps; p <= (ref.Off+int64(ref.Len)-1)/ps; p++ {
					touched[p] = true
				}
			}
		}
		var want iosim.Stats
		for p := range touched {
			if touched[p-1] {
				want.SeqReads++
			} else {
				want.RandReads++
			}
		}
		if got := drain(c.ScanFiltered(keep)); got != want {
			t.Errorf("%s: filtered scan read %v, its kept documents span %v", name, got, want)
		}
	}
	scan, all := drain(c.Scan()), drain(c.ScanFiltered(nil))
	if scan != all || scan != (iosim.Stats{SeqReads: c.Stats().D - 1, RandReads: 1}) {
		t.Errorf("Scan read %v, ScanFiltered(nil) %v, want %d pages from a parked head", scan, all, c.Stats().D)
	}
}
