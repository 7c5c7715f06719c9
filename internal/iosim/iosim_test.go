package iosim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCreateOpenRemove(t *testing.T) {
	d := NewDisk()
	f, err := d.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if f.Name() != "a" {
		t.Errorf("Name = %q, want a", f.Name())
	}
	if _, err := d.Create("a"); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate Create err = %v, want ErrFileExists", err)
	}
	g, err := d.Open("a")
	if err != nil || g != f {
		t.Errorf("Open = %v, %v; want same file", g, err)
	}
	if _, err := d.Open("missing"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("Open missing err = %v, want ErrFileNotFound", err)
	}
	if err := d.Remove("a"); err != nil {
		t.Errorf("Remove: %v", err)
	}
	if err := d.Remove("a"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("second Remove err = %v, want ErrFileNotFound", err)
	}
}

func TestFilesSorted(t *testing.T) {
	d := NewDisk()
	for _, name := range []string{"c", "a", "b"} {
		if _, err := d.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Files()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Files = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Files = %v, want %v", got, want)
		}
	}
}

func TestClosedDisk(t *testing.T) {
	d := NewDisk()
	d.Close()
	if _, err := d.Create("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Create on closed disk err = %v, want ErrClosed", err)
	}
	if _, err := d.Open("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Open on closed disk err = %v, want ErrClosed", err)
	}
}

func TestSequentialVsRandomClassification(t *testing.T) {
	d := NewDisk(WithPageSize(64))
	f, _ := d.Create("f")
	for i := 0; i < 10; i++ {
		if _, err := f.AppendPage([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// First read is random (head parked).
	if _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	// Next two sequential.
	f.ReadPage(1)
	f.ReadPage(2)
	// Jump: random.
	f.ReadPage(7)
	// Continue: sequential.
	f.ReadPage(8)
	// Re-read same page: random (head is at 8, 8 != 8+1).
	f.ReadPage(8)
	s := f.Stats()
	if s.SeqReads != 3 || s.RandReads != 3 {
		t.Errorf("stats = %+v, want 3 seq / 3 rand", s)
	}
	if d.Stats() != s {
		t.Errorf("disk stats %+v != file stats %+v", d.Stats(), s)
	}
}

func TestParkHead(t *testing.T) {
	d := NewDisk(WithPageSize(32))
	f, _ := d.Create("f")
	f.AppendPage(nil)
	f.AppendPage(nil)
	f.ReadPage(0)
	f.ParkHead()
	f.ReadPage(1) // would be sequential, but head was parked
	s := f.Stats()
	if s.RandReads != 2 || s.SeqReads != 0 {
		t.Errorf("stats = %+v, want 2 rand / 0 seq", s)
	}
}

func TestDedicatedHeadsInterleave(t *testing.T) {
	// Two files on a default disk have independent heads: interleaved
	// scans stay sequential after the first page of each.
	d := NewDisk(WithPageSize(32))
	a, _ := d.Create("a")
	b, _ := d.Create("b")
	for i := 0; i < 4; i++ {
		a.AppendPage(nil)
		b.AppendPage(nil)
	}
	for i := int64(0); i < 4; i++ {
		a.ReadPage(i)
		b.ReadPage(i)
	}
	s := d.Stats()
	if s.RandReads != 2 || s.SeqReads != 6 {
		t.Errorf("stats = %+v, want 2 rand / 6 seq", s)
	}
}

func TestSharedHeadInterleave(t *testing.T) {
	d := NewDisk(WithPageSize(32), WithSharedHead())
	a, _ := d.Create("a")
	b, _ := d.Create("b")
	for i := 0; i < 4; i++ {
		a.AppendPage(nil)
		b.AppendPage(nil)
	}
	for i := int64(0); i < 4; i++ {
		a.ReadPage(i)
		b.ReadPage(i)
	}
	s := d.Stats()
	if s.RandReads != 8 || s.SeqReads != 0 {
		t.Errorf("stats = %+v, want all 8 reads random under shared head", s)
	}
}

func TestReadPageOutOfRange(t *testing.T) {
	d := NewDisk()
	f, _ := d.Create("f")
	if _, err := f.ReadPage(0); !errors.Is(err, ErrPageRange) {
		t.Errorf("err = %v, want ErrPageRange", err)
	}
	if _, err := f.ReadPage(-1); !errors.Is(err, ErrPageRange) {
		t.Errorf("err = %v, want ErrPageRange", err)
	}
}

func TestWritePage(t *testing.T) {
	d := NewDisk(WithPageSize(16))
	f, _ := d.Create("f")
	if err := f.WritePage(0, []byte("hello")); err != nil {
		t.Fatalf("append via WritePage: %v", err)
	}
	if err := f.WritePage(0, []byte("world")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := f.WritePage(5, nil); !errors.Is(err, ErrPageRange) {
		t.Errorf("gap write err = %v, want ErrPageRange", err)
	}
	page, err := f.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:5], []byte("world")) {
		t.Errorf("page = %q, want world", page[:5])
	}
}

func TestPageTooLarge(t *testing.T) {
	d := NewDisk(WithPageSize(4))
	f, _ := d.Create("f")
	if _, err := f.AppendPage([]byte("12345")); err == nil {
		t.Error("AppendPage oversized data: want error")
	}
	if err := f.WritePage(0, []byte("12345")); err == nil {
		t.Error("WritePage oversized data: want error")
	}
}

func TestWriterPacksTightly(t *testing.T) {
	d := NewDisk(WithPageSize(8))
	f, _ := d.Create("f")
	w := f.Writer()
	payload := []byte("abcdefghijklmnopqrst") // 20 bytes -> 3 pages of 8
	if w.Offset() != 0 {
		t.Errorf("initial offset = %d", w.Offset())
	}
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if w.Offset() != int64(len(payload)) {
		t.Errorf("offset = %d, want %d", w.Offset(), len(payload))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after Flush: want error")
	}
	if f.Pages() != 3 {
		t.Errorf("pages = %d, want 3", f.Pages())
	}
	got, err := f.ReadAt(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadAt = %q, want %q", got, payload)
	}
}

func TestReadAtCrossesPages(t *testing.T) {
	d := NewDisk(WithPageSize(4))
	f, _ := d.Create("f")
	w := f.Writer()
	w.Write([]byte("0123456789ab"))
	w.Flush()
	f.ParkHead()
	got, err := f.ReadAt(3, 6) // spans pages 0,1,2
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "345678" {
		t.Errorf("ReadAt = %q, want 345678", got)
	}
	s := f.Stats()
	if s.Reads() != 3 {
		t.Errorf("reads = %d, want 3 (pages spanned)", s.Reads())
	}
	if s.RandReads != 1 || s.SeqReads != 2 {
		t.Errorf("stats = %+v, want 1 rand + 2 seq", s)
	}
}

func TestReadAtErrors(t *testing.T) {
	d := NewDisk(WithPageSize(4))
	f, _ := d.Create("f")
	f.AppendPage([]byte("abcd"))
	if _, err := f.ReadAt(-1, 2); err == nil {
		t.Error("negative offset: want error")
	}
	if _, err := f.ReadAt(0, -2); err == nil {
		t.Error("negative length: want error")
	}
	if _, err := f.ReadAt(2, 10); !errors.Is(err, ErrPageRange) {
		t.Errorf("read past end err = %v, want ErrPageRange", err)
	}
}

// TestReadRange reads a whole-page range through ReadAt, as the sidecar
// loaders do: the range's pages in order, the first priced by the head
// and the rest sequential, and a range past the end fails.
func TestReadRange(t *testing.T) {
	d := NewDisk(WithPageSize(4))
	f, _ := d.Create("f")
	for i := 0; i < 5; i++ {
		f.AppendPage([]byte{byte('a' + i)})
	}
	got, err := f.ReadAt(4, 3*4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("b\x00\x00\x00c\x00\x00\x00d\x00\x00\x00"); !bytes.Equal(got, want) {
		t.Errorf("pages 1-3 = %q, want %q", got, want)
	}
	s := f.Stats()
	if s.RandReads != 1 || s.SeqReads != 2 {
		t.Errorf("stats = %+v, want 1 rand / 2 seq", s)
	}
	if _, err := f.ReadAt(3*4, 3*4); !errors.Is(err, ErrPageRange) {
		t.Errorf("range past the end err = %v, want ErrPageRange", err)
	}
}

func TestStatsCostAndArithmetic(t *testing.T) {
	s := Stats{SeqReads: 10, RandReads: 4, Writes: 2}
	if got := s.Cost(5); got != 30 {
		t.Errorf("Cost(5) = %v, want 30", got)
	}
	if got := s.Reads(); got != 14 {
		t.Errorf("Reads = %d, want 14", got)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.SeqReads != 20 || sum.RandReads != 8 || sum.Writes != 4 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(s)
	if diff != s {
		t.Errorf("Sub = %+v, want %+v", diff, s)
	}
	if s.String() == "" {
		t.Error("String is empty")
	}
}

func TestResetStats(t *testing.T) {
	d := NewDisk(WithPageSize(8))
	f, _ := d.Create("f")
	f.AppendPage(nil)
	f.ReadPage(0)
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", d.Stats())
	}
}

func TestDiskCostUsesAlpha(t *testing.T) {
	d := NewDisk(WithPageSize(8), WithAlpha(7))
	f, _ := d.Create("f")
	f.AppendPage(nil)
	f.AppendPage(nil)
	f.ReadPage(0) // random
	f.ReadPage(1) // sequential
	if got := d.Cost(); got != 8 {
		t.Errorf("Cost = %v, want 8 (1 + 7)", got)
	}
	d.SetAlpha(2)
	if got := d.Cost(); got != 3 {
		t.Errorf("Cost after SetAlpha = %v, want 3", got)
	}
	if d.Alpha() != 2 {
		t.Errorf("Alpha = %v, want 2", d.Alpha())
	}
}

func TestFileAccessors(t *testing.T) {
	d := NewDisk(WithPageSize(64))
	f, _ := d.Create("f")
	if f.PageSize() != 64 {
		t.Errorf("PageSize = %d", f.PageSize())
	}
	if f.Disk() != d {
		t.Error("Disk accessor wrong")
	}
	f.AppendPage(nil)
	f.AppendPage(nil)
	if f.Size() != 128 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestPagesForBytes(t *testing.T) {
	cases := []struct {
		n    int64
		ps   int
		want int64
	}{
		{0, 4096, 0}, {-5, 4096, 0}, {1, 4096, 1}, {4096, 4096, 1},
		{4097, 4096, 2}, {8192, 4096, 2}, {10, 4, 3},
	}
	for _, c := range cases {
		if got := PagesForBytes(c.n, c.ps); got != c.want {
			t.Errorf("PagesForBytes(%d,%d) = %d, want %d", c.n, c.ps, got, c.want)
		}
	}
}

func TestSpannedPages(t *testing.T) {
	cases := []struct {
		off, length int64
		ps          int
		want        int64
	}{
		{0, 0, 4, 0}, {0, 1, 4, 1}, {0, 4, 4, 1}, {0, 5, 4, 2},
		{3, 2, 4, 2}, {4, 4, 4, 1}, {7, 10, 4, 4},
	}
	for _, c := range cases {
		if got := SpannedPages(c.off, c.length, c.ps); got != c.want {
			t.Errorf("SpannedPages(%d,%d,%d) = %d, want %d", c.off, c.length, c.ps, got, c.want)
		}
	}
}

// Property: writing any byte stream through Writer and reading it back with
// ReadAt yields the identical stream, regardless of page size.
func TestQuickWriterRoundTrip(t *testing.T) {
	check := func(data []byte, psSeed uint8) bool {
		ps := int(psSeed%61) + 3 // page sizes 3..63
		d := NewDisk(WithPageSize(ps))
		f, err := d.Create("f")
		if err != nil {
			return false
		}
		w := f.Writer()
		if _, err := w.Write(data); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := f.ReadAt(0, int64(len(data)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: for any access sequence, SeqReads+RandReads equals the number of
// reads issued, and scanning a file front to back costs exactly
// 1 random + (pages-1) sequential reads.
func TestQuickScanCost(t *testing.T) {
	check := func(nPages uint8) bool {
		n := int64(nPages%50) + 1
		d := NewDisk(WithPageSize(16))
		f, _ := d.Create("f")
		for i := int64(0); i < n; i++ {
			f.AppendPage(nil)
		}
		for i := int64(0); i < n; i++ {
			if _, err := f.ReadPage(i); err != nil {
				return false
			}
		}
		s := f.Stats()
		return s.RandReads == 1 && s.SeqReads == n-1 && s.Reads() == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReads(t *testing.T) {
	d := NewDisk(WithPageSize(16))
	f, _ := d.Create("f")
	for i := 0; i < 100; i++ {
		f.AppendPage([]byte{byte(i)})
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				idx := int64(r.Intn(100))
				page, err := f.ReadPage(idx)
				if err != nil {
					done <- err
					return
				}
				if page[0] != byte(idx) {
					done <- fmt.Errorf("page %d content %d", idx, page[0])
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Stats().Reads(); got != 2000 {
		t.Errorf("total reads = %d, want 2000", got)
	}
}
