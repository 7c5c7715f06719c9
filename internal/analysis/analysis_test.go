package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePkg wraps a single source string as a loaded (untyped) Package
// so directive handling can be unit-tested without touching disk.
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p/p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{
		Module: "m",
		Path:   "m/p",
		Rel:    "p",
		Fset:   fset,
		Files:  []*ast.File{f},
	}
}

// TestDirectiveStrictness pins the //go:-style parsing rule: the marker
// must immediately follow the comment opener. Prose that mentions the
// syntax (with a space after //) must never parse as a suppression.
func TestDirectiveStrictness(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:ignore errdrop shutdown must not mask the primary error
var a int

// lint:ignore errdrop this is prose discussing the directive syntax
var b int

/*lint:ignore mapdeterminism block comments are directives too*/
var c int
`)
	ignores, malformed := collectIgnores(pkg, []string{"errdrop", "mapdeterminism"})
	if len(malformed) != 0 {
		t.Fatalf("malformed = %v, want none", malformed)
	}
	if len(ignores) != 2 {
		t.Fatalf("ignores = %d, want 2 (prose must not parse)", len(ignores))
	}
	if ignores[0].Rule != "errdrop" || ignores[1].Rule != "mapdeterminism" {
		t.Errorf("parsed rules = %s, %s", ignores[0].Rule, ignores[1].Rule)
	}
	if !strings.Contains(ignores[0].Reason, "primary error") {
		t.Errorf("reason not captured: %q", ignores[0].Reason)
	}
}

// TestMalformedDirectives: unknown rule, missing reason, and missing
// rule each become a lintdirective diagnostic instead of an ignore.
func TestMalformedDirectives(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:ignore nosuchrule because reasons
var a int

//lint:ignore errdrop
var b int

//lint:ignore
var c int
`)
	ignores, malformed := collectIgnores(pkg, []string{"errdrop"})
	if len(ignores) != 0 {
		t.Fatalf("ignores = %v, want none", ignores)
	}
	if len(malformed) != 3 {
		t.Fatalf("malformed = %d diagnostics, want 3: %v", len(malformed), malformed)
	}
	for _, d := range malformed {
		if d.Rule != RuleLintDirective {
			t.Errorf("malformed directive reported under rule %q", d.Rule)
		}
	}
	wantSubstrs := []string{"unknown rule", "no reason", "needs a rule name"}
	for i, sub := range wantSubstrs {
		if !strings.Contains(malformed[i].Message, sub) {
			t.Errorf("malformed[%d] = %q, want substring %q", i, malformed[i].Message, sub)
		}
	}
}

// TestApplyIgnores pins the matching window: same line or the line
// directly above, same rule, same file.
func TestApplyIgnores(t *testing.T) {
	diags := []Diagnostic{
		{Rule: "errdrop", File: "p/p.go", Line: 5, Col: 2, Message: "x"},
		{Rule: "errdrop", File: "p/p.go", Line: 9, Col: 2, Message: "y"},
		{Rule: "mapdeterminism", File: "p/p.go", Line: 5, Col: 2, Message: "z"},
	}
	ignores := []*ignoreDirective{
		{Rule: "errdrop", File: "p/p.go", Line: 4}, // line above diag 0
		{Rule: "errdrop", File: "p/q.go", Line: 9}, // wrong file
	}
	kept, suppressed := applyIgnores(diags, ignores)
	if suppressed != 1 || len(kept) != 2 {
		t.Fatalf("suppressed = %d, kept = %d, want 1 and 2", suppressed, len(kept))
	}
	if !ignores[0].used || ignores[1].used {
		t.Errorf("used flags = %v, %v, want true, false", ignores[0].used, ignores[1].used)
	}
	stale := staleIgnores(&Package{Path: "m/p"}, ignores)
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "suppresses nothing") {
		t.Errorf("stale = %v, want one suppresses-nothing diagnostic", stale)
	}
}
