package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests compare every diagnostic over a fixture module under
// testdata/ against `// want <rule> "<message substring>"` annotations
// in its sources — the analysistest idiom rebuilt on the in-repo engine
// (TestGoldenModule here, TestArchitecture's layers half in
// arch_test.go). Every want must be
// hit and every diagnostic must be wanted, so both false negatives and
// false positives fail loudly.

// fixturePolicy is the policy testdata/module is written against.
func fixturePolicy() *Policy {
	return &Policy{
		MapDeterminism: []string{"internal/core"},
		ErrDrop:        []string{"internal/errs"},
		ErrDropExempt:  []string{"fmt", "hash"},
	}
}

// TestGoldenModule runs the suite (stale-ignore detection included)
// over the type-checked fixture.
func TestGoldenModule(t *testing.T) {
	report, err := Run("testdata/module", fixturePolicy(), RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	matchWants(t, "testdata/module", report.Diagnostics)
	// One used suppression per fixture package: mapdeterminism (core)
	// and errdrop (errs: a bare-statement discard).
	if report.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", report.Suppressed)
	}
}

// matchWants compares diags with the want annotations of the fixture
// sources under root.
func matchWants(t *testing.T, root string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, root)
	matched := make(map[*want]bool)
	for _, d := range diags {
		w := findWant(wants, d)
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("missing diagnostic: %s:%d wants %s %q", w.file, w.line, w.rule, w.substr)
		}
	}
}

type want struct {
	file   string // root-relative, forward slashes
	line   int
	rule   string
	substr string
}

var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

// parseWants scans every fixture source file for want annotations.
func parseWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &want{
					file:   filepath.ToSlash(rel),
					line:   i + 1,
					rule:   m[1],
					substr: m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parsing wants: %v", err)
	}
	return wants
}

func findWant(wants []*want, d Diagnostic) *want {
	for _, w := range wants {
		if w.file == d.File && w.line == d.Line && w.rule == d.Rule && strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}
