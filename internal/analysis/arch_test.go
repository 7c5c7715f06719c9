package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestArchitecture runs the import-layer analyzer against the live
// repo, so `go test ./internal/analysis` alone — without the Makefile —
// fails on a package DAG violation. importlayer is syntactic, so this
// stays a parse-only smoke (no type checking); the typed rules' one pass
// over the live tree is cmd/lintcheck's TestLiveRepoClean.
func TestArchitecture(t *testing.T) {
	report, err := Run(repoRoot(t), DefaultPolicy(), RunOptions{Rules: []string{"importlayer"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range report.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(report.Packages) < 20 {
		t.Errorf("only %d packages analyzed; the walker lost most of the module", len(report.Packages))
	}
}
