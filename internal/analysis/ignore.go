package analysis

import (
	"go/ast"
	"strings"
)

// RuleLintDirective is the rule name under which the engine reports
// problems with lint:ignore directives themselves: missing reason,
// unknown rule, or a directive that suppresses nothing. It keeps the
// acceptance bar honest — every ignore in the tree must name a real
// rule, explain itself, and still be load-bearing.
const RuleLintDirective = "lintdirective"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	Rule   string
	Reason string
	File   string
	Line   int
	used   bool
}

const ignorePrefix = "lint:ignore"

// collectIgnores parses every lint:ignore directive in the package.
// Malformed directives come back as diagnostics immediately; valid ones
// are returned for suppression matching.
func collectIgnores(pkg *Package, known []string) ([]*ignoreDirective, []Diagnostic) {
	knownSet := make(map[string]bool, len(known))
	for _, r := range known {
		knownSet[r] = true
	}
	var ignores []*ignoreDirective
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c)
				if !ok {
					continue
				}
				pos := pkg.Position(c.Pos())
				rule, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				reason = strings.TrimSpace(reason)
				switch {
				case rule == "":
					diags = append(diags, pkg.diag(RuleLintDirective, c.Pos(),
						"lint:ignore needs a rule name and a reason"))
				case !knownSet[rule]:
					diags = append(diags, pkg.diag(RuleLintDirective, c.Pos(),
						"lint:ignore names unknown rule %q", rule))
				case reason == "":
					diags = append(diags, pkg.diag(RuleLintDirective, c.Pos(),
						"lint:ignore %s has no reason; unexplained suppressions are not allowed", rule))
				default:
					ignores = append(ignores, &ignoreDirective{
						Rule:   rule,
						Reason: reason,
						File:   pos.Filename,
						Line:   pos.Line,
					})
				}
			}
		}
	}
	return ignores, diags
}

// directiveText extracts the payload of a lint:ignore comment. Like
// //go: directives, the marker must follow the comment opener with no
// space — `//lint:ignore` is a directive, `// lint:ignore` is prose —
// so documentation that mentions the syntax never parses as a
// suppression.
func directiveText(c *ast.Comment) (string, bool) {
	text := c.Text
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	if rest, ok := strings.CutPrefix(text, ignorePrefix); ok {
		return rest, true
	}
	return "", false
}

// applyIgnores drops every diagnostic covered by a directive on the
// same line or the line directly above, marking the directive used.
func applyIgnores(diags []Diagnostic, ignores []*ignoreDirective) ([]Diagnostic, int) {
	if len(ignores) == 0 {
		return diags, 0
	}
	var kept []Diagnostic
	suppressed := 0
	for _, d := range diags {
		matched := false
		for _, ig := range ignores {
			if ig.Rule == d.Rule && ig.File == d.File &&
				(ig.Line == d.Line || ig.Line == d.Line-1) {
				ig.used = true
				matched = true
			}
		}
		if matched {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}

// staleIgnores reports directives that suppressed nothing. Every run
// is a full run, so an unused directive always means a stale one.
func staleIgnores(pkg *Package, ignores []*ignoreDirective) []Diagnostic {
	var diags []Diagnostic
	for _, ig := range ignores {
		if !ig.used {
			diags = append(diags, Diagnostic{
				Rule:    RuleLintDirective,
				Package: pkg.Path,
				File:    ig.File,
				Line:    ig.Line,
				Col:     1,
				Message: "lint:ignore " + ig.Rule + " suppresses nothing; remove the stale directive",
			})
		}
	}
	return diags
}
