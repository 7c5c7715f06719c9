package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestLiveRepoClean is the shipped-tree acceptance bar through the
// actual driver, and tier-1's one typed pass over the live tree: the
// checked-in module, benchmark/ included, must lint clean under both
// rules plus directive hygiene — every finding fixed, every suppression
// explained and load-bearing. It runs in -report mode so the same pass
// pins the per-rule stats columns; a finding would print under its
// rule's name.
func TestLiveRepoClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", repoRoot(t), "-report"}, &stdout, &stderr)
	out := stdout.String()
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, stderr.String(), out)
	}
	for _, want := range []string{
		"lintcheck: ok (41 packages, 2 rules", "file(s)",
		"mapdeterminism", "errdrop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// writeInjected builds a temp module containing a deliberate errdrop
// violation: a persistence-path error discarded as a bare statement.
func writeInjected(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module injected\n\ngo 1.22\n",
		"internal/iosim/bad.go": `// Package iosim exists to prove the lint gate fails closed.
package iosim

import "os"

// Drop removes a file and ignores whether that worked.
func Drop(name string) { os.Remove(name) }
`,
	})
}

// TestInjectedViolationFails is the negative test behind the `make
// verify` acceptance criterion: a module with a violation makes the
// driver exit 1 and name the finding.
func TestInjectedViolationFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", writeInjected(t)}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Drop discards the error returned by os.Remove") {
		t.Errorf("finding not printed: %s", stdout.String())
	}
}

// TestReportMode prints the per-rule summary and still exits by
// finding count.
func TestReportMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", writeInjected(t), "-report"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	out := stdout.String()
	for _, want := range []string{"module injected", "errdrop", "suppressed by lint:ignore"} {
		if !strings.Contains(out, want) {
			t.Errorf("report mode missing %q:\n%s", want, out)
		}
	}
}

// writeModule materializes a temp module from a file map.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestInjectedPathSensitiveViolationsFail is the negative test for the
// typed analyzers under the live policy: for each case, a temp module
// with one deliberate violation, linted under DefaultPolicy, must make
// the driver exit 1 and print the finding.
func TestInjectedPathSensitiveViolationsFail(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{
			name: "errdrop",
			files: map[string]string{"cmd/bad/main.go": `// Command bad drops an error on purpose.
package main

import "errors"

func work() error { return errors.New("boom") }

func main() {
	_ = work()
}
`},
			want: "assigns an error to _",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.files["go.mod"] = "module injected\n\ngo 1.22\n"
			root := writeModule(t, tc.files)
			var stdout, stderr bytes.Buffer
			code := run([]string{"-root", root}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Errorf("finding %q not printed:\n%s", tc.want, stdout.String())
			}
		})
	}
}

// TestUsageErrors exit with status 2, distinct from findings: a flag
// the driver does not have (the -rule and -pkg narrowing flags are gone)
// and a directory with no module.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rule", "errdrop"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -rule") {
		t.Errorf("stderr = %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-root", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("rootless dir exit = %d, want 2", code)
	}
}

// TestTypeErrorFailsLoad: a module that does not compile is a load
// error, exit 2, and the message names the package that failed.
func TestTypeErrorFailsLoad(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                 "module injected\n\ngo 1.22\n",
		"internal/fine/fine.go":  "// Package fine compiles.\npackage fine\n",
		"internal/broken/bad.go": "// Package broken does not compile.\npackage broken\n\n// N is not an int.\nfunc N() int { return \"n\" }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "injected/internal/broken") {
		t.Errorf("stderr does not name the failing package:\n%s", stderr.String())
	}
}
