package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests run the engine over the fixture modules under
// testdata/ and compare every diagnostic against `// want <rule>
// "<message substring>"` annotations in the fixture sources — the
// analysistest idiom rebuilt on the in-repo engine. Every want must be
// hit and every diagnostic must be wanted, so both false negatives and
// false positives fail loudly.

// fixturePolicy is the policy testdata/module is written against.
func fixturePolicy() *Policy {
	return &Policy{
		ImportLayer: map[string][]string{
			"internal/clock":     {},
			"internal/core":      {},
			"internal/errs":      {},
			"internal/guards":    {},
			"internal/iosim":     {},
			"internal/locks":     {"internal/iosim"},
			"internal/order":     {},
			"internal/reqtrace":  {},
			"internal/resources": {"internal/iosim"},
			"internal/spans":     {"internal/reqtrace"},
		},
		MapDeterminism: []string{"internal/core"},
		NilRecv:        map[string][]string{"internal/guards": {"Thing"}},
		Resources: []ResourceRule{
			{Pkg: "internal/iosim", Call: "Open", Release: "Close"},
			{Pkg: "internal/iosim", Call: "OpenPair", Release: "Close"},
			{Pkg: "internal/reqtrace", Call: "StartSpan", Release: "End"},
			{Pkg: "internal/reqtrace", Call: "StartChild", Release: "End"},
		},
		ErrDrop:       []string{"internal/errs"},
		ErrDropExempt: []string{"fmt", "hash"},
		LockOrder:     []string{"internal/order"},
		HeldCalls: []HeldCallRule{
			{Scope: []string{"internal/locks"}, Pkg: "internal/iosim", Why: "no simulated I/O under a lock"},
			{Scope: []string{"cmd/served"}, Pkg: ".", Prefix: "Join", Why: "join unlocked"},
		},
	}
}

// layersPolicy is the policy testdata/layers is written against.
// internal/notable is deliberately missing from the table, and so is
// cmd/tool: only a program with a row (cmd/door) is held to it.
func layersPolicy() *Policy {
	return &Policy{
		ImportLayer: map[string][]string{
			"internal/a": {},
			"internal/b": {"internal/a"},
			"internal/c": {},
			"cmd/door":   {"internal/a"},
		},
	}
}

// TestGoldenModule runs the full suite (all rules, full-run mode, so
// stale-ignore detection is live) over the type-checked fixture.
func TestGoldenModule(t *testing.T) {
	report := runGolden(t, "testdata/module", fixturePolicy(), RunOptions{})
	// One used suppression per fixture package that carries one:
	// mapdeterminism (core), wallclock (clock), nilrecv (guards),
	// errdrop (errs), resourceleak twice (resources, and the span rows in
	// spans) and mutexhygiene twice (the held-call rows in locks, the
	// leaf-lock rule in order).
	if report.Suppressed != 8 {
		t.Errorf("suppressed = %d, want 8", report.Suppressed)
	}
}

// TestGoldenLayers runs the syntactic import-layer rule over the
// fixture whose imports deliberately break every layer invariant.
func TestGoldenLayers(t *testing.T) {
	runGolden(t, "testdata/layers", layersPolicy(), RunOptions{Rules: []string{"importlayer"}})
}

func runGolden(t *testing.T, root string, pol *Policy, opts RunOptions) *Report {
	t.Helper()
	report, err := Run(root, pol, opts)
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	wants := parseWants(t, root)
	matched := make(map[*want]bool)
	for _, d := range report.Diagnostics {
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
	return report
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

// TestGoldenRuleFilter pins that -rule narrows the run: with only
// wallclock selected the map-iteration fixture produces nothing.
func TestGoldenRuleFilter(t *testing.T) {
	report, err := Run("testdata/module", fixturePolicy(), RunOptions{Rules: []string{"wallclock"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range report.Diagnostics {
		if d.Rule != "wallclock" {
			t.Errorf("rule filter leaked %s diagnostic: %s", d.Rule, d)
		}
	}
	if len(report.Diagnostics) == 0 {
		t.Error("wallclock run over the fixture found nothing")
	}
}

// TestGoldenPackageFilter pins that -pkg narrows the run and disables
// stale-ignore reporting for the skipped analyzers' directives.
func TestGoldenPackageFilter(t *testing.T) {
	report, err := Run("testdata/module", fixturePolicy(), RunOptions{Packages: []string{"internal/guards"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Packages) != 1 || !strings.HasSuffix(report.Packages[0], "internal/guards") {
		t.Fatalf("packages = %v, want just internal/guards", report.Packages)
	}
	for _, d := range report.Diagnostics {
		if !strings.HasPrefix(d.File, "internal/guards/") {
			t.Errorf("package filter leaked diagnostic: %s", d)
		}
	}
}
