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
// checked-in module, benchmark/ included, must lint clean under all six
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
		"lintcheck: ok (41 packages, 6 rules", "file(s)",
		"mapdeterminism", "wallclock", "nilrecv", "resourceleak", "errdrop", "mutexhygiene",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// writeInjected builds a temp module containing a deliberate wallclock
// violation.
func writeInjected(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module injected\n\ngo 1.22\n",
		"internal/badpkg/bad.go": `// Package badpkg exists to prove the lint gate fails closed.
package badpkg

import "time"

// Stamp reads the wall clock from library code.
func Stamp() int64 { return time.Now().UnixNano() }
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
	if !strings.Contains(stdout.String(), "must not read the wall clock") {
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
	for _, want := range []string{"module injected", "wallclock", "suppressed by lint:ignore"} {
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
// typed analyzers and for the live policy's rows: for each case, a
// temp module with one deliberate violation, linted under
// DefaultPolicy, must make the driver exit 1 and print the finding.
func TestInjectedPathSensitiveViolationsFail(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{
			name: "resourceleak",
			files: map[string]string{"internal/badpkg/bad.go": `// Package badpkg leaks a listener on purpose.
package badpkg

import "net"

// Leak abandons the listener on the success path.
func Leak() error {
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return err
	}
	ln.Addr()
	return nil
}
`},
			want: "never releases",
		},
		{
			// The span rows: a phase span leaked on an early error return.
			name: "span-leak",
			files: map[string]string{
				"internal/reqtrace/reqtrace.go": `// Package reqtrace stubs the span provider.
package reqtrace

// Span is a stub span.
type Span struct{}

// StartChild opens a child span.
func (s *Span) StartChild(phase, name string) *Span { return &Span{} }

// End closes the span.
func (s *Span) End() {}
`,
				"internal/core/bad.go": `// Package core leaks a phase span on purpose.
package core

import (
	"errors"

	"injected/internal/reqtrace"
)

// Scan ends its span on the happy path only.
func Scan(parent *reqtrace.Span, fail bool) error {
	sp := parent.StartChild("scan", "outer")
	if fail {
		return errors.New("boom")
	}
	sp.End()
	return nil
}
`},
			want: "returns without releasing sp",
		},
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
		{
			// The leaf-lock rule: any nested acquire, cyclic or not.
			name: "mutexhygiene",
			files: map[string]string{"internal/badpkg/bad.go": `// Package badpkg nests its locks on purpose.
package badpkg

import "sync"

// S carries two mutexes.
type S struct {
	a, b sync.Mutex
}

// AB takes b while holding a.
func (s *S) AB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}
`},
			want: "nested acquire",
		},
		{
			// The held-call rows: simulated I/O under a scrape-path lock.
			name: "held-call",
			files: map[string]string{
				"internal/iosim/iosim.go": `// Package iosim stubs the simulated disk.
package iosim

// ReadPage stands in for a page read.
func ReadPage(i int) []byte { return nil }
`,
				"internal/metrics/bad.go": `// Package metrics reads the disk under its lock on purpose.
package metrics

import (
	"sync"

	"injected/internal/iosim"
)

// E guards a page with a mutex.
type E struct {
	mu   sync.Mutex
	page []byte
}

// Refresh holds the lock across the read.
func (e *E) Refresh() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.page = iosim.ReadPage(0)
}
`},
			want: "while holding a mutex (internal/metrics.E.mu)",
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
	if code := run([]string{"-rule", "wallclock"}, &stdout, &stderr); code != 2 {
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
