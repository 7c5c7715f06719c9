package iosim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDisk(WithPageSize(64), WithAlpha(7))
	a, _ := d.Create("alpha")
	b, _ := d.Create("beta")
	for i := 0; i < 5; i++ {
		a.AppendPage([]byte{byte(i), 0xAA})
	}
	b.AppendPage([]byte("hello"))
	a.ReadPage(0) // stats must NOT survive the snapshot

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.PageSize() != 64 || restored.Alpha() != 7 {
		t.Errorf("pageSize=%d alpha=%v", restored.PageSize(), restored.Alpha())
	}
	if restored.Stats() != (Stats{}) {
		t.Errorf("restored stats = %+v, want zero", restored.Stats())
	}
	files := restored.Files()
	if len(files) != 2 || files[0] != "alpha" || files[1] != "beta" {
		t.Fatalf("files = %v", files)
	}
	ra, err := restored.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Pages() != 5 {
		t.Fatalf("alpha pages = %d", ra.Pages())
	}
	for i := int64(0); i < 5; i++ {
		page, err := ra.ReadPage(i)
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(i) || page[1] != 0xAA {
			t.Errorf("page %d = %v", i, page[:2])
		}
	}
	rb, _ := restored.Open("beta")
	page, _ := rb.ReadPage(0)
	if string(page[:5]) != "hello" {
		t.Errorf("beta page = %q", page[:5])
	}
}

func TestSnapshotEmptyDisk(t *testing.T) {
	d := NewDisk()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Files()) != 0 {
		t.Errorf("files = %v", restored.Files())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		d := NewDisk(WithPageSize(32))
		for _, name := range []string{"z", "a", "m"} {
			f, _ := d.Create(name)
			f.AppendPage([]byte(name))
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(mk().Bytes(), mk().Bytes()) {
		t.Error("snapshots of identical disks differ")
	}
}

func TestReadDiskErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte{1, 2, 3},
		[]byte{0, 0, 0, 0, 0, 0}, // wrong magic
	}
	for _, c := range cases {
		if _, err := ReadDisk(bytes.NewReader(c)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("ReadDisk(%v) err = %v, want ErrBadSnapshot", c, err)
		}
	}
	// Valid header but truncated body.
	d := NewDisk(WithPageSize(32))
	f, _ := d.Create("f")
	f.AppendPage([]byte("data"))
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadDisk(bytes.NewReader(trunc)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated err = %v, want ErrBadSnapshot", err)
	}
}

// Property: any disk contents survive a snapshot round trip bit-exactly.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := []int{16, 32, 64}[r.Intn(3)]
		d := NewDisk(WithPageSize(ps))
		nFiles := r.Intn(4) + 1
		type fileData struct {
			name  string
			pages [][]byte
		}
		var want []fileData
		for i := 0; i < nFiles; i++ {
			name := string(rune('a' + i))
			f, err := d.Create(name)
			if err != nil {
				return false
			}
			fd := fileData{name: name}
			for p, n := 0, r.Intn(6); p < n; p++ {
				page := make([]byte, ps)
				r.Read(page)
				f.AppendPage(page)
				fd.pages = append(fd.pages, page)
			}
			want = append(want, fd)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		restored, err := ReadDisk(&buf)
		if err != nil {
			return false
		}
		for _, fd := range want {
			f, err := restored.Open(fd.name)
			if err != nil || f.Pages() != int64(len(fd.pages)) {
				return false
			}
			for p, wantPage := range fd.pages {
				got, err := f.ReadPage(int64(p))
				if err != nil || !bytes.Equal(got, wantPage) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
