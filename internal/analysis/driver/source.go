package driver

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A LoadedPackage is one source-loaded, type-checked package plus
// everything a Pass needs.
type LoadedPackage struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Loader type-checks module packages from source. Standard-library
// imports resolve through the stdlib source importer (offline, no go
// command); module-internal imports recurse through the loader itself, so
// the whole module checks without export data or network access.
//
// Test files are out of scope by design: a package is its non-test
// GoFiles only. Tests legitimately use wall clocks, randomness, closures
// and lock gymnastics that production code may not, so no analyzer ever
// wants to see them.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modDir  string
	std     types.ImporterFrom
	pkgs    map[string]*LoadedPackage
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory modDir whose
// module path is modPath (from go.mod).
func NewLoader(modPath, modDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*LoadedPackage),
		loading: make(map[string]bool),
	}
}

// ModuleRoot locates the enclosing module of dir: it walks upward to the
// first go.mod and returns (module path, module dir).
func ModuleRoot(dir string) (string, string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

// ImportFrom implements types.ImporterFrom: module paths load from source
// through the loader, everything else through the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		lp, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load type-checks one module package by import path (memoised).
func (l *Loader) Load(path string) (*LoadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
	lp, err := l.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = lp
	return lp, nil
}

// LoadDir type-checks the package in an arbitrary directory under the
// given import path. Unlike Load it does not memoise, so the checktest
// harness uses it for testdata packages.
func (l *Loader) LoadDir(dir, path string) (*LoadedPackage, error) {
	// go/build resolves build constraints for the host platform and
	// splits test files out, with no go command and no network.
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tc := &types.Config{Importer: l}
	info := newTypesInfo()
	pkg, err := tc.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// ModulePackages returns the import paths of every package in the module,
// in deterministic dependency-friendly (lexicographic) order. Like the go
// command it skips testdata, hidden, and vendor-style directories, and
// any subdirectory holding its own go.mod: that is another module.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == l.modDir {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.modDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return slices.Compact(paths), nil
}

// CheckModule loads every module package and runs the analyzers over each
// in dependency order (imports before importers, so facts flow forward).
// It returns all diagnostics sorted by position. Like the Loader it sees
// non-test files only.
func CheckModule(analyzers []*Analyzer, modPath, modDir string) (*token.FileSet, []Diagnostic, error) {
	l := NewLoader(modPath, modDir)
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, nil, err
	}
	// Load everything first: Load recurses into module imports, so the
	// memo map fills in dependency order regardless of walk order.
	loaded := make(map[string]*LoadedPackage, len(paths))
	for _, p := range paths {
		lp, err := l.Load(p)
		if err != nil {
			return nil, nil, err
		}
		loaded[p] = lp
	}
	order := topoOrder(paths, loaded, modPath)

	facts := NewFactSet()
	var all []Diagnostic
	for _, p := range order {
		lp := loaded[p]
		diags, err := runAnalyzers(analyzers, l.Fset, lp.Files, lp.Pkg, lp.Info, facts)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, diags...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Pos < all[j].Pos })
	return l.Fset, all, nil
}

// topoOrder sorts package paths so that every package follows its module
// imports (ties broken lexicographically for determinism).
func topoOrder(paths []string, loaded map[string]*LoadedPackage, modPath string) []string {
	var order []string
	seen := make(map[string]bool, len(paths))
	var visit func(p string)
	visit = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		lp := loaded[p]
		if lp == nil {
			return
		}
		var deps []string
		for _, imp := range lp.Pkg.Imports() {
			ip := imp.Path()
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				deps = append(deps, ip)
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			visit(d)
		}
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}
