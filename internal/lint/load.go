package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. File positions are relative to the module root.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// rawPkg is a parsed-but-unchecked package during loading.
type rawPkg struct {
	files   []*ast.File
	imports []string // intra-module imports only
}

// Load parses and type-checks every package of the module rooted at
// root using only the standard library: go/parser for syntax, go/types
// with the source importer for semantics. _test.go files, testdata
// trees, vendored code, and nested modules are skipped. Packages are
// returned in deterministic (import-path) order.
//
//lint:ignore unreached entry point: the lint tests load the module, and no CLI does
func Load(root string) ([]*Package, error) {
	modPath, err := readModulePath(root)
	if err != nil {
		return nil, err
	}
	raws, fset, err := parseModule(root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(raws)
	if err != nil {
		return nil, err
	}

	// The source importer resolves standard-library imports by
	// type-checking GOROOT sources; intra-module imports are resolved
	// from the packages checked so far (topological order guarantees
	// dependencies come first).
	checked := make(map[string]*types.Package, len(order))
	imp := &moduleImporter{std: importer.ForCompiler(fset, "source", nil), mod: checked}
	var pkgs []*Package
	for _, path := range order {
		raw := raws[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, raw.files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", path, err)
		}
		checked[path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  path,
			Fset:  fset,
			Files: raw.files,
			Types: tpkg,
			Info:  info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// readModulePath extracts the module path from root/go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// parseModule walks the module tree and parses every non-test Go file,
// grouping them into packages by directory. Filenames recorded in the
// FileSet are relative to root so diagnostics are position-stable.
func parseModule(root, modPath string) (map[string]*rawPkg, *token.FileSet, error) {
	fset := token.NewFileSet()
	raws := map[string]*rawPkg{}
	walkErr := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return fs.SkipDir
			}
			if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
				return fs.SkipDir // nested module
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var files []*ast.File
		var imports []string
		for _, e := range entries {
			fname := e.Name()
			if e.IsDir() || !strings.HasSuffix(fname, ".go") || strings.HasSuffix(fname, "_test.go") {
				continue
			}
			full := filepath.Join(dir, fname)
			src, err := os.ReadFile(full)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, full)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("parse: %w", err)
			}
			files = append(files, f)
			for _, spec := range f.Imports {
				ipath := strings.Trim(spec.Path.Value, `"`)
				if ipath == modPath || strings.HasPrefix(ipath, modPath+"/") {
					imports = append(imports, ipath)
				}
			}
		}
		if len(files) == 0 {
			return nil
		}
		relDir, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		relDir = filepath.ToSlash(relDir)
		pkgPath := modPath
		if relDir != "." {
			pkgPath = modPath + "/" + relDir
		}
		raws[pkgPath] = &rawPkg{files: files, imports: imports}
		return nil
	})
	if walkErr != nil {
		return nil, nil, fmt.Errorf("lint: walking %s: %w", root, walkErr)
	}
	return raws, fset, nil
}

// topoSort orders packages so every intra-module dependency precedes
// its dependents, failing on import cycles.
func topoSort(raws map[string]*rawPkg) ([]string, error) {
	paths := make([]string, 0, len(raws))
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(raws))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		raw := raws[path]
		deps := append([]string(nil), raw.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := raws[dep]; !ok {
				continue // import of a skipped dir (e.g. testdata); importer will fail if real
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves intra-module imports from already-checked
// packages and everything else via the source importer.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
