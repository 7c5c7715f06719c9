package main

import (
	"os"
	"testing"
)

// silence routes stdout to /dev/null for the duration of a test, keeping
// the test log readable while still executing the full printing path.
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

func TestRunGroups(t *testing.T) {
	silence(t)
	for _, group := range []string{"table1", "1", "2", "3", "4", "5", "lambda", "delta", "extended", "findings", "integrated"} {
		if err := run(group); err != nil {
			t.Errorf("run(%q): %v", group, err)
		}
	}
}

func TestRunAll(t *testing.T) {
	silence(t)
	if err := run("all"); err != nil {
		t.Errorf("run(all): %v", err)
	}
}

func TestRunUnknownGroup(t *testing.T) {
	if err := run("bogus"); err == nil {
		t.Error("unknown group: want error")
	}
}
