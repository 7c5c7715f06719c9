package analysis

import (
	"strconv"
	"strings"
)

// importLayer enforces the package DAG of Policy.ImportLayer — the
// mechanical form of the DESIGN.md layer diagram. Four global
// invariants apply on top of the per-package allow lists:
//
//   - no package imports a cmd/* binary;
//   - no internal package imports the facade (module root) package;
//   - a program with a row imports the facade and its row, nothing else
//     of the module (packages outside internal/ without a row are free);
//   - no package imports anything outside the module and the standard
//     library — the repo is dependency-free by design.
//
// The rule is purely syntactic (import declarations), so the arch_test
// smoke and `lintcheck -rule importlayer` run without type checking.
type importLayer struct{ pol *Policy }

func (a *importLayer) Name() string { return "importlayer" }
func (a *importLayer) Doc() string {
	return "enforce the DESIGN.md package DAG from the checked-in policy table (stdlib-only leaves, zero-dep telemetry, no internal→cmd or internal→facade edges, no external dependencies)"
}
func (a *importLayer) NeedsTypes() bool { return false }

func (a *importLayer) Check(p *Package) []Diagnostic {
	var diags []Diagnostic
	internal := strings.HasPrefix(p.Rel, "internal/")
	allowed, listed := a.pol.ImportLayer[p.Rel]
	if internal && !listed {
		diags = append(diags, p.diag(a.Name(), p.Files[0].Name.Pos(),
			"internal package %s is not in the import-layer policy table; add it (and its layer) to analysis.DefaultPolicy", p.Rel))
	}
	allowSet := make(map[string]bool, len(allowed))
	for _, rel := range allowed {
		allowSet[rel] = true
	}

	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch kind, rel := a.classify(p.Module, path); kind {
			case importExternal:
				diags = append(diags, p.diag(a.Name(), imp.Pos(),
					"import of %s: the module is dependency-free; only stdlib and module packages are allowed", path))
			case importModule:
				switch {
				case rel == "cmd" || strings.HasPrefix(rel, "cmd/"):
					diags = append(diags, p.diag(a.Name(), imp.Pos(),
						"import of %s: cmd binaries are never importable", path))
				case !internal && (!listed || rel == ""):
					// The facade and unlisted packages outside internal/
					// may import any module package; a listed program,
					// the facade plus its row (cmd/* was excluded above).
				case rel == "":
					diags = append(diags, p.diag(a.Name(), imp.Pos(),
						"import of %s: internal packages must not import the facade package", path))
				case listed && !allowSet[rel]:
					diags = append(diags, p.diag(a.Name(), imp.Pos(),
						"import of %s: not an allowed dependency of %s (policy allows only: %s)",
						path, p.Rel, allowListString(allowed)))
				}
			}
		}
	}
	return diags
}

type importKind int

const (
	importStd importKind = iota
	importModule
	importExternal
)

// classify buckets an import path: module-internal (returning the
// module-relative path), standard library, or external. The stdlib
// test is the go tool's own heuristic — a dot in the first path
// element means a hosted module.
func (a *importLayer) classify(module, path string) (importKind, string) {
	if path == module {
		return importModule, ""
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return importModule, rest
	}
	first := path
	if i := strings.Index(path, "/"); i >= 0 {
		first = path[:i]
	}
	if strings.Contains(first, ".") {
		return importExternal, ""
	}
	return importStd, ""
}

func allowListString(allowed []string) string {
	if len(allowed) == 0 {
		return "the standard library"
	}
	return "stdlib + " + strings.Join(allowed, ", ")
}
