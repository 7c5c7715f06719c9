package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *struct{ Path string }
}

// load parses and type-checks every package of the module rooted at
// root and of each module nested beneath it (benchmark/ has a go.mod of
// its own but is linted with the tree). Each module is listed once with
// `go list -export -deps -json ./...`, which compiles what is stale and
// names the export data of every dependency; each listed package of the
// module itself is then parsed from its GoFiles (test files are out of
// scope: tests may cross layers, read clocks and iterate maps) and
// type-checked against that export data through the gc importer. A
// package that does not compile fails the load with its import path,
// from go list or from the check. It returns the root module's path
// and the packages in listing order.
func load(root string) (string, []*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", nil, err
	}
	dirs, err := moduleDirs(abs)
	if err != nil {
		return "", nil, err
	}
	fset := token.NewFileSet()
	var module string
	var pkgs []*Package
	for _, dir := range dirs {
		listed, err := goList(dir)
		if err != nil {
			return "", nil, err
		}
		exports := make(map[string]string, len(listed))
		for _, lp := range listed {
			exports[lp.ImportPath] = lp.Export
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file := exports[path]
			if file == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(file)
		})
		for _, lp := range listed {
			if lp.DepOnly || len(lp.GoFiles) == 0 {
				continue
			}
			if module == "" && lp.Module != nil {
				module = lp.Module.Path
			}
			pkg, err := check(fset, imp, abs, lp)
			if err != nil {
				return "", nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		pkg.Module = module
	}
	return module, pkgs, nil
}

// moduleDirs returns root and every directory beneath it holding a
// go.mod, skipping what the go tool skips: hidden, underscore and
// testdata directories.
func moduleDirs(root string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", root, err)
	}
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goList runs `go list -export -deps -json ./...` in the module at dir.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list in %s: %v\n%s", dir, err, strings.TrimSpace(stderr.String()))
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output in %s: %w", dir, err)
		}
		listed = append(listed, lp)
	}
}

// check parses one listed package and type-checks it. Positions carry
// the path relative to root, so diagnostics are stable across checkouts
// and readable in CI logs.
func check(fset *token.FileSet, imp types.Importer, root string, lp listedPackage) (*Package, error) {
	rel, err := filepath.Rel(root, lp.Dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	pkg := &Package{Path: lp.ImportPath, Rel: rel, Fset: fset}
	for _, name := range lp.GoFiles {
		display := filepath.ToSlash(filepath.Join(filepath.FromSlash(rel), name))
		src, err := os.ReadFile(filepath.Join(lp.Dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, display, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp}
	if pkg.Types, err = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", lp.ImportPath, err)
	}
	return pkg, nil
}
