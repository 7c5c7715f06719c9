package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// importLayers is the package DAG of DESIGN.md §2. Key: the
// module-relative directory of a package. Value: the complete list of
// module packages it may import; the standard library is always allowed.
// Every package under internal/ must have a row, so a new package declares
// its layer on arrival, and no internal package imports the facade. A
// program (cmd/*, examples/*) with a row may import the facade plus its
// row; packages outside internal/ without one (the facade, benchmark/)
// may import any module package. The rest of the DAG the go command
// enforces by itself: no import cycle, no external module (go.mod has no
// require), no import of a program.
//
// The rows transcribe the layer diagram: telemetry is zero-dep,
// codec/costmodel/relation/topk/analysis are stdlib-only, accum (whose
// AddCells takes the cells it multiplies) and document sit one rung above
// codec, metrics and reqtrace see only telemetry among internal packages
// (reqtrace to derive the phase histograms from its finished trees), and
// the join core is the only package that may pull the whole storage stack
// together. The program rows are the one-door rule: a program gets its
// disk, collections, inverted files and joins from the facade, and lists
// only what it is about besides — data generation (corpus), pure formulas
// (costmodel, simulate), observability, the lint engine — never a storage
// or join package.
var importLayers = map[string][]string{
	"internal/analysis":  {},
	"internal/codec":     {},
	"internal/costmodel": {},
	"internal/relation":  {},
	"internal/telemetry": {},
	"internal/topk":      {},

	"internal/accum":    {"internal/codec"},
	"internal/document": {"internal/codec"},
	"internal/iosim":    {"internal/telemetry"},
	"internal/metrics":  {"internal/telemetry"},
	"internal/reqtrace": {"internal/telemetry"},
	"internal/slo":      {"internal/metrics", "internal/telemetry"},

	"internal/btree":      {"internal/codec", "internal/iosim"},
	"internal/termmap":    {"internal/codec", "internal/document"},
	"internal/tokenize":   {"internal/document", "internal/termmap"},
	"internal/collection": {"internal/codec", "internal/document", "internal/iosim"},
	"internal/stats":      {"internal/collection", "internal/document"},
	"internal/invfile":    {"internal/btree", "internal/codec", "internal/collection", "internal/iosim"},
	"internal/entrycache": {"internal/invfile", "internal/telemetry"},
	"internal/cluster":    {"internal/collection", "internal/document", "internal/iosim"},
	"internal/lsh":        {"internal/collection", "internal/document", "internal/iosim"},
	"internal/signature":  {"internal/collection", "internal/document", "internal/iosim"},
	"internal/corpus":     {"internal/collection", "internal/costmodel", "internal/document", "internal/iosim"},

	"internal/core": {
		"internal/accum", "internal/codec", "internal/collection",
		"internal/costmodel", "internal/document", "internal/entrycache",
		"internal/invfile", "internal/iosim", "internal/lsh",
		"internal/reqtrace", "internal/signature", "internal/stats",
		"internal/telemetry", "internal/topk",
	},
	"internal/query": {
		"internal/collection", "internal/core", "internal/costmodel",
		"internal/document", "internal/invfile", "internal/lsh",
		"internal/relation", "internal/telemetry",
	},
	"internal/simulate": {"internal/corpus", "internal/costmodel"},

	"cmd/benchreport": {"internal/corpus", "internal/costmodel"},
	"cmd/corpusgen":   {"internal/corpus"},
	"cmd/lintcheck":   {"internal/analysis"},
	"cmd/loadgen":     {"internal/metrics"},
	"cmd/simulate":    {"internal/corpus", "internal/costmodel", "internal/simulate"},
	"cmd/textjoin":    {"internal/corpus", "internal/reqtrace"},
	"cmd/textjoind": {
		"internal/costmodel", "internal/metrics", "internal/reqtrace",
		"internal/telemetry",
	},
	"cmd/tracecheck": {"internal/metrics", "internal/reqtrace"},

	"examples/clustering":   {},
	"examples/costexplorer": {},
	"examples/jobmatch":     {},
	"examples/multidb":      {},
	"examples/reviewers":    {},
}

// layersFixture is the table testdata/layers is written against.
// internal/notable is deliberately missing from it, and so is cmd/tool:
// only a program with a row (cmd/door) is held to one.
var layersFixture = map[string][]string{
	"internal/a": {},
	"internal/b": {"internal/a"},
	"internal/c": {},
	"cmd/door":   {"internal/a"},
}

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

// TestArchitecture holds the package DAG: the import block of every
// non-test file, parsed alone, against the allow table. The live tree
// must produce nothing; testdata/layers, whose imports break every rule
// the table states, must produce exactly its `// want importlayer`
// annotations.
func TestArchitecture(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		for _, d := range layerViolations(t, repoRoot(t), "textjoin", importLayers) {
			t.Errorf("%s", d)
		}
	})
	t.Run("layers", func(t *testing.T) {
		matchWants(t, "testdata/layers", layerViolations(t, "testdata/layers", "layered", layersFixture))
	})
}

// layerViolations checks every non-test file of the module at root
// against table, skipping hidden and testdata directories like the go
// tool.
func layerViolations(t *testing.T, root, module string, table map[string][]string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var diags []Diagnostic
	unlisted := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		file := filepath.ToSlash(filepath.Join(dir, d.Name()))
		rel := filepath.ToSlash(dir)
		if rel == "." {
			rel = ""
		}
		report := func(pos token.Pos, format string, args ...any) {
			p := fset.Position(pos)
			diags = append(diags, Diagnostic{Rule: "importlayer", Package: rel, File: file,
				Line: p.Line, Col: p.Column, Message: fmt.Sprintf(format, args...)})
		}

		internal := strings.HasPrefix(rel, "internal/")
		allowed, listed := table[rel]
		if internal && !listed && !unlisted[rel] {
			unlisted[rel] = true
			report(f.Name.Pos(), "internal package %s is not in the import-layer policy table; give it a row in importLayers", rel)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			dep, inModule := strings.CutPrefix(path, module+"/")
			switch {
			case path == module && internal:
				report(imp.Pos(), "import of %s: internal packages must not import the facade package", path)
			case inModule && listed && !slices.Contains(allowed, dep):
				report(imp.Pos(), "import of %s: not an allowed dependency of %s (its row: %v)", path, rel, allowed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}
