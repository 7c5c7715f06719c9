package main

import (
	"os"
	"path/filepath"
	"testing"

	"textjoin"
)

func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// workspace is a fresh workspace for one run of the command; the test
// fails if the run returned with a view of it still open.
func workspace(t *testing.T) *textjoin.Workspace {
	t.Helper()
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(5))
	t.Cleanup(func() {
		if n := ws.Disk().OpenViews(); n != 0 {
			t.Errorf("the run left %d view(s) open", n)
		}
	})
	return ws
}

func TestRunProfilesAllAlgorithms(t *testing.T) {
	silence(t)
	for _, alg := range []string{"auto", "hhnl", "hvnl", "vvm"} {
		if _, err := run(workspace(t), "", "", "wsj", "wsj", 4096, 1, "", alg, 3, 200, "raw", 2, true, "", nil, nil); err != nil {
			t.Errorf("alg %q: %v", alg, err)
		}
	}
}

func TestRunWeightings(t *testing.T) {
	silence(t)
	for _, w := range []string{"raw", "cosine", "tfidf"} {
		if _, err := run(workspace(t), "", "", "doe", "doe", 4096, 1, "", "hhnl", 2, 200, w, 1, false, "", nil, nil); err != nil {
			t.Errorf("weighting %q: %v", w, err)
		}
	}
}

func TestRunFromFiles(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.txt")
	content := "0 1:2 5:1\n1 2:1 5:3\n2 1:1 2:2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(workspace(t), path, path, "", "", 1, 1, "", "vvm", 2, 100, "raw", 3, false, "", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatch(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("0 1:1 2:1\n1 5:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(workspace(t), "", "", "wsj", "", 4096, 1, queries, "auto", 2, 200, "raw", 2, false, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Errors: missing query file, bad weighting, missing C1.
	if _, err := run(workspace(t), "", "", "wsj", "", 4096, 1, "/nonexistent.txt", "auto", 2, 200, "raw", 2, false, "", nil, nil); err == nil {
		t.Error("missing query file: want error")
	}
	if _, err := run(workspace(t), "", "", "wsj", "", 4096, 1, queries, "auto", 2, 200, "bogus", 2, false, "", nil, nil); err == nil {
		t.Error("bad weighting: want error")
	}
	if _, err := run(workspace(t), "", "", "", "", 4096, 1, queries, "auto", 2, 200, "raw", 2, false, "", nil, nil); err == nil {
		t.Error("missing C1: want error")
	}
}

// TestRunSaveDisk pins that a -save-disk snapshot is usable: restored
// with the facade's loaders it answers the same join with the same
// result digest as the run that wrote it.
func TestRunSaveDisk(t *testing.T) {
	silence(t)
	snap := filepath.Join(t.TempDir(), "disk.tjdk")
	want, err := run(workspace(t), "", "", "wsj", "wsj", 4096, 1, "", "hvnl", 2, 200, "raw", 1, false, snap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws, err := textjoin.LoadWorkspace(f)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides are WSJ/4096, so each holds as many documents as the
	// join returned rows.
	open := func(name string) (*textjoin.Collection, *textjoin.InvertedFile) {
		c, err := ws.OpenCollection(name, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		inv, err := ws.OpenInvertedFile(c)
		if err != nil {
			t.Fatalf("%s: re-attach inverted file: %v", name, err)
		}
		return c, inv
	}
	c1, inv1 := open("c1")
	c2, inv2 := open("c2")
	in := textjoin.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	got, _, err := textjoin.Join(textjoin.HVNL, in, textjoin.Options{Lambda: 2, MemoryPages: 200})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := textjoin.ResultDigest(got), textjoin.ResultDigest(want); g != w {
		t.Errorf("restored snapshot: result digest %s, the writing run had %s", g, w)
	}
	// Bad path errors out.
	if _, err := run(workspace(t), "", "", "wsj", "wsj", 4096, 1, "", "hhnl", 2, 200, "raw", 1, false, "/no-such-dir/x", nil, nil); err == nil {
		t.Error("bad snapshot path: want error")
	}
}

func TestRunErrors(t *testing.T) {
	silence(t)
	// No source for C1.
	if _, err := run(workspace(t), "", "", "", "wsj", 4096, 1, "", "auto", 2, 100, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("missing C1 source: want error")
	}
	// Unknown algorithm.
	if _, err := run(workspace(t), "", "", "wsj", "wsj", 4096, 1, "", "bogus", 2, 100, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("unknown algorithm: want error")
	}
	// Unknown weighting.
	if _, err := run(workspace(t), "", "", "wsj", "wsj", 4096, 1, "", "hhnl", 2, 100, "bogus", 1, false, "", nil, nil); err == nil {
		t.Error("unknown weighting: want error")
	}
	// Unknown profile.
	if _, err := run(workspace(t), "", "", "trec", "wsj", 4096, 1, "", "hhnl", 2, 100, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("unknown profile: want error")
	}
	// Missing file.
	if _, err := run(workspace(t), "/nonexistent.txt", "", "", "wsj", 4096, 1, "", "hhnl", 2, 100, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("missing file: want error")
	}
}
