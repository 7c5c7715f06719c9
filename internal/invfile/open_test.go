package invfile

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"textjoin/internal/iosim"
)

func TestOpenRebuildsStatsAndEntries(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	r := rand.New(rand.NewSource(23))
	docs := randomDocs(r, 30, 50, 10)
	c := buildCollection(t, d, "c", docs)
	built := buildInverted(t, d, c, "c")

	ef, _ := d.Open("c.inv")
	tf, _ := d.Open("c.bt")
	reopened, err := Open(ef, tf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := built.Stats(), reopened.Stats()
	if a.Entries != b.Entries || a.TotalCells != b.TotalCells || a.Bytes != b.Bytes || a.I != b.I {
		t.Errorf("stats differ: %+v vs %+v", a, b)
	}
	if math.Abs(a.J-b.J) > 1e-12 {
		t.Errorf("J differs: %v vs %v", a.J, b.J)
	}
	// Entry fetches agree with the original handle.
	if _, err := built.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	for _, term := range c.Terms() {
		e1, err1 := built.FetchEntry(term)
		e2, err2 := reopened.FetchEntry(term)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(e1.Cells) != len(e2.Cells) {
			t.Fatalf("term %d entries differ", term)
		}
		for i := range e1.Cells {
			if e1.Cells[i] != e2.Cells[i] {
				t.Fatalf("term %d cell %d differs", term, i)
			}
		}
	}
	// Sequential scans agree too.
	s1, s2 := built.Scan(), reopened.Scan()
	for {
		e1, err1 := s1.NextReuse()
		e2, err2 := s2.NextReuse()
		if err1 == io.EOF || err2 == io.EOF {
			if err1 != err2 {
				t.Fatalf("scan lengths differ: %v vs %v", err1, err2)
			}
			break
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if e1.Term != e2.Term || len(e1.Cells) != len(e2.Cells) {
			t.Fatalf("scan entries differ at term %d/%d", e1.Term, e2.Term)
		}
	}
}

func TestOpenEmptyInvertedFile(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	c := buildCollection(t, d, "c", nil)
	buildInverted(t, d, c, "c")
	ef, _ := d.Open("c.inv")
	tf, _ := d.Open("c.bt")
	reopened, err := Open(ef, tf)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Stats().Entries != 0 || reopened.Tree() != nil {
		t.Errorf("reopened empty = %+v", reopened.Stats())
	}
	if _, err := reopened.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	ok, err := reopened.Contains(1)
	if err != nil || ok {
		t.Errorf("Contains on empty reopened = %v, %v", ok, err)
	}
}

func TestOpenCorruptTree(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(64))
	ef, _ := d.Create("e")
	tf, _ := d.Create("t")
	tf.AppendPage([]byte{1, 2, 3})
	if _, err := Open(ef, tf); err == nil {
		t.Error("corrupt tree: want error")
	}
}
