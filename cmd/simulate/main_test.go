package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"textjoin/internal/metrics"
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
		if err := run(group, 0, 0, 0, "", ""); err != nil {
			t.Errorf("run(%q): %v", group, err)
		}
	}
}

func TestRunAll(t *testing.T) {
	silence(t)
	if err := run("all", 0, 0, 0, "", ""); err != nil {
		t.Errorf("run(all): %v", err)
	}
}

func TestRunMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical run")
	}
	silence(t)
	if err := run("measured", 2048, 200, 1, "", ""); err != nil {
		t.Errorf("run(measured): %v", err)
	}
}

// TestRunMeasuredProm checks the -prom export: the written file must be
// a valid Prometheus exposition carrying the per-file I/O counters.
func TestRunMeasuredProm(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical run")
	}
	silence(t)
	path := filepath.Join(t.TempDir(), "sim.prom")
	if err := run("measured", 4096, 200, 1, "", path); err != nil {
		t.Fatalf("run(measured, prom): %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(data); err != nil {
		t.Errorf("prom export rejected by parser: %v", err)
	}
	if !strings.Contains(string(data), "textjoin_iosim_file_seq_reads_total") {
		t.Error("prom export lacks per-file I/O counters")
	}
	// Phase timing is derived from the run's trace: four profile pairs
	// times three measured joins, each under one exec span.
	if want := `textjoin_phase_ns_count{phase="exec"} 12`; !strings.Contains(string(data), want) {
		t.Errorf("prom export lacks %s", want)
	}
}

func TestRunUnknownGroup(t *testing.T) {
	if err := run("bogus", 0, 0, 0, "", ""); err == nil {
		t.Error("unknown group: want error")
	}
}
