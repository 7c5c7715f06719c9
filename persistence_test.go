package textjoin

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestPersistenceRoundTrip builds collections and inverted files, saves
// the workspace to a real file, restores it in a "new process" and
// verifies the join results are identical.
func TestPersistenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ws := NewWorkspace(WithPageSize(512), WithAlpha(5))
	c1, err := ws.NewCollection("c1", randomDocuments(r, 30, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.NewCollection("c2", randomDocuments(r, 25, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lambda: 4, MemoryPages: 100}
	want, _, err := Join(VVM, Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Save to a real file on the OS filesystem.
	path := filepath.Join(t.TempDir(), "workspace.tjdk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore and re-attach.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	restored, err := LoadWorkspace(g)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Disk().PageSize() != 512 || restored.Disk().Alpha() != 5 {
		t.Errorf("disk params: %d, %v", restored.Disk().PageSize(), restored.Disk().Alpha())
	}
	rc1, err := restored.OpenCollection("c1", 30)
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := restored.OpenCollection("c2", 25)
	if err != nil {
		t.Fatal(err)
	}
	rinv1, err := restored.OpenInvertedFile(rc1)
	if err != nil {
		t.Fatal(err)
	}
	rinv2, err := restored.OpenInvertedFile(rc2)
	if err != nil {
		t.Fatal(err)
	}
	if rc1.Stats() != c1.Stats() || rc2.Stats() != c2.Stats() {
		t.Errorf("collection stats changed across persistence")
	}

	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		got, _, err := Join(alg, Inputs{Outer: rc2, Inner: rc1, InnerInv: rinv1, OuterInv: rinv2}, opts)
		if err != nil {
			t.Fatalf("%v after restore: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows vs %d", alg, len(got), len(want))
		}
		for i := range want {
			if got[i].Outer != want[i].Outer || len(got[i].Matches) != len(want[i].Matches) {
				t.Fatalf("%v row %d differs", alg, i)
			}
			for j := range want[i].Matches {
				if got[i].Matches[j].Doc != want[i].Matches[j].Doc {
					t.Fatalf("%v row %d match %d differs", alg, i, j)
				}
			}
		}
	}
}

func TestLoadWorkspaceBadData(t *testing.T) {
	if _, err := LoadWorkspace(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("bad snapshot: want error")
	}
}

func TestOpenCollectionMissing(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.OpenCollection("ghost", 1); err == nil {
		t.Error("missing collection: want error")
	}
}

// errDiskFull is what failAt's writer returns once its budget is spent.
var errDiskFull = errors.New("disk full")

// failAt accepts the first n bytes written to it and fails every write
// from byte n on, as a full disk or a closed pipe would.
type failAt struct{ n int }

func (w *failAt) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errDiskFull
}

// TestSaveReportsEveryWriteError holds Save to its one way of saying a
// snapshot is incomplete: for every byte offset k of a small image, a
// writer that fails at byte k must make Save return that failure. The
// image is larger than Save's write buffer, so both a write that fails
// mid-image and the final flush are offsets here.
func TestSaveReportsEveryWriteError(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ws := NewWorkspace(WithPageSize(512))
	c, err := ws.NewCollection("c1", randomDocuments(r, 40, 200, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.BuildInvertedFile(c); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	n, err := ws.Save(&image)
	if err != nil || n != int64(image.Len()) {
		t.Fatalf("Save = %d, %v; image has %d bytes", n, err, image.Len())
	}
	if image.Len() <= 4096 {
		t.Fatalf("image is %d bytes; it must outgrow Save's 4096-byte buffer", image.Len())
	}
	for k := 0; k < image.Len(); k++ {
		if _, err := ws.Save(&failAt{n: k}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing at byte %d of %d: Save returned %v", k, image.Len(), err)
		}
	}
}
