package iosim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// viewFixture builds a disk with nFiles files of nPages pages each and
// zeroes the build-time counters.
func viewFixture(t *testing.T, nFiles, nPages int) (*Disk, []*File) {
	t.Helper()
	d := NewDisk(iosimTestPageSize())
	files := make([]*File, nFiles)
	for i := range files {
		f, err := d.Create(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < nPages; p++ {
			if _, err := f.AppendPage([]byte{byte(i), byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
		files[i] = f
	}
	d.ResetStats()
	return d, files
}

func iosimTestPageSize() Option { return WithPageSize(64) }

// scanThrough reads every page of f in order through the given file
// handle (a base file or a view clone).
func scanThrough(t *testing.T, f *File) {
	t.Helper()
	for p := int64(0); p < f.Pages(); p++ {
		if _, err := f.ReadPage(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestViewStatsMatchSerialRun(t *testing.T) {
	// Serial baseline: scan the file directly on a pristine disk.
	d, files := viewFixture(t, 1, 8)
	scanThrough(t, files[0])
	want := d.Stats()

	// Same scan through a view on a disk whose base head was left
	// mid-file by other traffic: the view starts parked, so its stats
	// must match the pristine serial run, not inherit the base head.
	d2, files2 := viewFixture(t, 1, 8)
	if _, err := files2[0].ReadPage(3); err != nil {
		t.Fatal(err)
	}
	base := d2.Stats()
	fileBase := files2[0].Stats()
	v := d2.View()
	scanThrough(t, v.File(files2[0]))
	if got := v.Stats(); got != want {
		t.Errorf("view stats = %+v, want %+v", got, want)
	}
	// Until Close the disk totals exclude the view's reads.
	if got := d2.Stats(); got != base {
		t.Errorf("disk stats before Close = %+v, want %+v", got, base)
	}
	v.Close()
	sum := base
	sum.Add(want)
	if got := d2.Stats(); got != sum {
		t.Errorf("disk stats after Close = %+v, want %+v", got, sum)
	}
	// Per-file totals merged too (on top of the build-time writes that
	// ResetStats leaves in the per-file counters).
	fileSum := fileBase
	fileSum.Add(want)
	if got := files2[0].Stats(); got != fileSum {
		t.Errorf("file stats after Close = %+v, want %+v", got, fileSum)
	}
}

func TestViewConcurrentScansIdentical(t *testing.T) {
	// Serial reference for one interleaved-file scan.
	d, files := viewFixture(t, 2, 16)
	ref := d.View()
	for p := int64(0); p < 16; p++ {
		for _, f := range files {
			if _, err := ref.File(f).ReadPage(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := ref.Stats()
	ref.Close()

	const n = 8
	stats := make([]Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := d.View()
			defer v.Close()
			for p := int64(0); p < 16; p++ {
				for _, f := range files {
					if _, err := v.File(f).ReadPage(p); err != nil {
						t.Error(err)
						return
					}
				}
			}
			stats[i] = v.Stats()
		}()
	}
	wg.Wait()
	for i, got := range stats {
		if got != want {
			t.Errorf("view %d stats = %+v, want %+v", i, got, want)
		}
	}
	// Aggregate accounting: disk totals carry every view's reads.
	var sum Stats
	sum.Add(want) // the serial reference view
	for range stats {
		sum.Add(want)
	}
	if got := d.Stats(); got != sum {
		t.Errorf("disk stats = %+v, want %+v", got, sum)
	}
}

func TestViewFileIdentity(t *testing.T) {
	d, files := viewFixture(t, 1, 2)
	v := d.View()
	c := v.File(files[0])
	if c2 := v.File(files[0]); c2 != c {
		t.Error("View.File is not memoized per base file")
	}
	if c2 := v.File(c); c2 != c {
		t.Error("View.File of a clone does not resolve to the same clone")
	}
	w := d.View()
	wc := w.File(c) // a foreign clone resolves to its base first
	if wc == c {
		t.Error("views share a clone")
	}
	if wc.Base() != files[0] || c.Base() != files[0] {
		t.Error("Base does not resolve to the shared file")
	}
	if v.File(nil) != nil {
		t.Error("View.File(nil) != nil")
	}
}

func TestViewReadOnly(t *testing.T) {
	d, files := viewFixture(t, 1, 2)
	c := d.View().File(files[0])
	if _, err := c.AppendPage([]byte{1}); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("AppendPage err = %v, want ErrReadOnlyView", err)
	}
	if err := c.WritePage(0, []byte{1}); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("WritePage err = %v, want ErrReadOnlyView", err)
	}
	// Metadata and byte reads delegate to the base store.
	if c.Pages() != 2 || c.Size() != files[0].Size() || c.Name() != files[0].Name() {
		t.Error("clone metadata differs from base")
	}
	got, err := c.ReadAt(0, 2)
	if err != nil || got[0] != 0 || got[1] != 0 {
		t.Errorf("ReadAt through view = %v, %v", got, err)
	}
}

func TestViewClosed(t *testing.T) {
	d, files := viewFixture(t, 1, 2)
	v := d.View()
	c := v.File(files[0])
	if n := d.OpenViews(); n != 1 {
		t.Errorf("OpenViews with one view open = %d, want 1", n)
	}
	v.Close()
	v.Close() // idempotent
	if n := d.OpenViews(); n != 0 {
		t.Errorf("OpenViews after a double Close = %d, want 0", n)
	}
	if _, err := c.ReadPage(0); !errors.Is(err, ErrViewClosed) {
		t.Errorf("read after Close err = %v, want ErrViewClosed", err)
	}
}

func TestViewFaultInjection(t *testing.T) {
	d, files := viewFixture(t, 1, 4)
	d.InjectFaults(FaultPlan{FailAfterReads: 1})
	v := d.View()
	defer v.Close()
	c := v.File(files[0])
	if _, err := c.ReadPage(0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := c.ReadPage(1); !errors.Is(err, ErrInjected) {
		t.Errorf("read 2 err = %v, want ErrInjected", err)
	}
}

// TestViewTelemetry holds the one I/O record a program's collector takes
// from a request, View.FileStats: the view's own reads per file, every
// file of the disk listed, untouched ones at zero, and none of another
// view's reads.
func TestViewTelemetry(t *testing.T) {
	d, files := viewFixture(t, 2, 4)
	other := d.View()
	defer other.Close()
	scanThrough(t, other.File(files[1]))
	v := d.View()
	scanThrough(t, v.File(files[0]))
	want := []FileStat{{Name: "f0", Stats: Stats{SeqReads: 3, RandReads: 1}}, {Name: "f1"}}
	if got := v.FileStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("FileStats = %+v, want %+v", got, want)
	}
	v.Close()
	if got := v.FileStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("FileStats after Close = %+v, want %+v", got, want)
	}
}

func TestViewSharedHeadIsolation(t *testing.T) {
	// On a shared-head disk, alternating files is all-random. Two views
	// alternating concurrently must each see their own shared head, not
	// perturb each other or the base.
	d := NewDisk(WithPageSize(64), WithSharedHead())
	fa, _ := d.Create("a")
	fb, _ := d.Create("b")
	for p := 0; p < 4; p++ {
		fa.AppendPage(nil)
		fb.AppendPage(nil)
	}
	d.ResetStats()

	run := func(v *View) Stats {
		ca, cb := v.File(fa), v.File(fb)
		for p := int64(0); p < 4; p++ {
			ca.ReadPage(p)
			cb.ReadPage(p)
		}
		return v.Stats()
	}
	want := run(d.View())
	if want.RandReads != 8 || want.SeqReads != 0 {
		t.Fatalf("shared-head alternation should be all-random, got %+v", want)
	}

	// A view that stays on one file gets sequential runs even while the
	// alternating view thrashes "its" head.
	v1, v2 := d.View(), d.View()
	c1 := v1.File(fa)
	c1.ReadPage(0)
	v2.File(fb).ReadPage(0) // would break v1's run if heads were shared across views
	c1.ReadPage(1)
	if got := v1.Stats(); got.SeqReads != 1 || got.RandReads != 1 {
		t.Errorf("view shared head leaked across views: %+v", got)
	}
}
