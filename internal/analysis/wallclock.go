package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClock forbids wall-clock reads and global-rand state in every
// internal package: the ones that need a clock (reqtrace, slo, the
// exporter) are handed one, and telemetry reads none. The benchmark
// observatory's reports are byte-stable only because nothing on a
// measured path consults the real clock or the shared rand source; a
// stray time.Now would surface as flaky baseline diffs long after the
// offending PR merged.
//
// Flagged: uses of time.Now / time.Since / time.Until (calls or stored
// function values — a stored clock still reads wall time at run time)
// and any math/rand or math/rand/v2 package-level function that
// touches the global generator (rand.Intn, rand.Float64, rand.Seed,
// …). Seeded construction — rand.New, rand.NewSource, rand.NewZipf,
// rand.NewPCG, rand.NewChaCha8 — and methods on an explicit *rand.Rand
// stay legal: they are deterministic under a fixed seed.
type wallClock struct{}

func (a *wallClock) Name() string { return "wallclock" }
func (a *wallClock) Doc() string {
	return "forbid time.Now/time.Since/time.Until and math/rand global-state calls in internal packages"
}
func (a *wallClock) NeedsTypes() bool { return true }

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand functions that only build seeded
// generators and never touch global state.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func (a *wallClock) Check(p *Package) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") || p.Info == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgPathOf(p, sel.X) {
			case "time":
				if clockFuncs[sel.Sel.Name] {
					diags = append(diags, p.diag(a.Name(), sel.Pos(),
						"time.%s in %s: internal packages must not read the wall clock (inject a clock, or justify with //lint:ignore %s <reason>)",
						sel.Sel.Name, p.Rel, a.Name()))
				}
			case "math/rand", "math/rand/v2":
				obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if ok && !randConstructors[obj.Name()] {
					diags = append(diags, p.diag(a.Name(), sel.Pos(),
						"rand.%s uses the global rand state: seed an explicit *rand.Rand so runs stay reproducible",
						sel.Sel.Name))
				}
			}
			return true
		})
	}
	return diags
}
