package iosim

import (
	"bytes"
	"errors"
	"testing"
)

// spanDisk returns a disk holding one file "f" of five 16-byte pages whose
// byte i is i, with the build's counters zeroed.
func spanDisk(t *testing.T) (*Disk, *File) {
	t.Helper()
	d := NewDisk(WithPageSize(16))
	f, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w := f.Writer()
	for i := 0; i < 80; i++ {
		w.Write([]byte{byte(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	return d, f
}

// spanReads are the two ways to fetch a byte range: ReadAt's copy and
// ReadSpan's alias-or-stitch.
var spanReads = []struct {
	name string
	read func(f *File, off, length int64) ([]byte, error)
}{
	{"ReadAt", func(f *File, off, length int64) ([]byte, error) { return f.ReadAt(off, length) }},
	{"ReadSpan", func(f *File, off, length int64) ([]byte, error) { return f.ReadSpan(off, length, nil) }},
}

// TestReadSpanChargesWhatReadAtCharges holds both fetch paths to the same
// page walk: over ranges inside one page and ranges spanning two or three,
// with the head parked or resting just before the range, read directly or
// through a view, each returns the range's bytes and charges the pages it
// spans — the first random when the head is parked, every other one
// sequential — to the file, the disk and the view alike. An injected fault
// on any page of the range surfaces as the same error from both.
func TestReadSpanChargesWhatReadAtCharges(t *testing.T) {
	for _, tc := range []struct {
		name        string
		off, length int64
		pages       int64
	}{
		{"in-page", 20, 6, 1},
		{"whole page", 32, 16, 1},
		{"page tail", 60, 4, 1},
		{"two pages", 28, 8, 2},
		{"three pages", 26, 30, 3},
		{"empty", 40, 0, 0},
	} {
		for _, parked := range []bool{true, false} {
			for _, viaView := range []bool{false, true} {
				want, setting := Stats{SeqReads: tc.pages - 1, RandReads: 1}, tc.name+"/parked"
				if !parked {
					want, setting = Stats{SeqReads: tc.pages}, tc.name+"/after-previous-page"
				}
				if tc.pages == 0 {
					want = Stats{}
				}
				if viaView {
					setting += "/view"
				}
				for _, r := range spanReads {
					label := func() string { return r.name + "/" + setting }
					d, base := spanDisk(t)
					f, v := base, (*View)(nil)
					if viaView {
						v = d.View()
						f = v.File(base)
					}
					if !parked {
						if _, err := f.ReadPage(tc.off/16 - 1); err != nil {
							t.Fatal(err)
						}
					}
					before, beforeDisk := f.Stats(), d.Stats()
					var beforeView Stats
					if v != nil {
						beforeView = v.Stats()
					}
					got, err := r.read(f, tc.off, tc.length)
					if err != nil {
						t.Fatalf("%s: %v", label(), err)
					}
					wantBytes := make([]byte, tc.length)
					for i := range wantBytes {
						wantBytes[i] = byte(tc.off + int64(i))
					}
					if !bytes.Equal(got, wantBytes) {
						t.Errorf("%s: bytes %v, want %v", label(), got, wantBytes)
					}
					if got := f.Stats().Sub(before); got != want {
						t.Errorf("%s: file charged %v, want %v", label(), got, want)
					}
					if v == nil {
						if got := d.Stats().Sub(beforeDisk); got != want {
							t.Errorf("%s: disk charged %v, want %v", label(), got, want)
						}
						continue
					}
					if got := v.Stats().Sub(beforeView); got != want {
						t.Errorf("%s: view charged %v, want %v", label(), got, want)
					}
					// The disk sees the session's reads when it closes.
					v.Close()
					if got, total := d.Stats(), v.Stats(); got != total || beforeDisk != (Stats{}) {
						t.Errorf("%s: disk holds %v after the view's %v (%v before)", label(), got, total, beforeDisk)
					}
				}
			}
		}
		// A fault on each page of the range in turn.
		for k := int64(0); k < tc.pages; k++ {
			var errs []string
			for _, r := range spanReads {
				d, f := spanDisk(t)
				d.InjectFaults(FaultPlan{FailFile: "f", FailAfterReads: k})
				_, err := r.read(f, tc.off, tc.length)
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("%s/%s: fault on read %d: err = %v, want ErrInjected", r.name, tc.name, k+1, err)
				}
				errs = append(errs, err.Error())
			}
			if errs[0] != errs[1] {
				t.Errorf("%s: fault on read %d: ReadAt %q, ReadSpan %q", tc.name, k+1, errs[0], errs[1])
			}
		}
	}
}

// TestReadSpanAliasesOrStitches pins what ReadSpan hands out: a range
// inside one page is the page image itself, capped so an append cannot
// write into the page; a range crossing pages is stitched into scratch when
// it has the room, and ReadAt's result is a copy of neither.
func TestReadSpanAliasesOrStitches(t *testing.T) {
	_, f := spanDisk(t)
	page, err := f.ReadPage(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := f.ReadSpan(20, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &in[0] != &page[4] || cap(in) != 6 {
		t.Errorf("in-page span: not the page image at offset 4 with capacity 6 (cap %d)", cap(in))
	}
	_ = append(in, 0xff)
	if page[10] != 26 {
		t.Errorf("an append to the span wrote into the page: byte 10 = %d", page[10])
	}
	scratch := make([]byte, 0, 64)
	across, err := f.ReadSpan(26, 30, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &across[:1][0] != &scratch[:1][0] {
		t.Error("a span crossing pages was not stitched into the scratch it fits")
	}
	copied, err := f.ReadAt(20, 6)
	if err != nil {
		t.Fatal(err)
	}
	if &copied[0] == &page[4] {
		t.Error("ReadAt returned the page image, not a copy")
	}
}
