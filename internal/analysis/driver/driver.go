// Package driver is a minimal, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. It exists
// because this repository vendors nothing — the x/tools module is not
// available offline — yet the engine's invariants (determinism, lock
// discipline, hot-path allocation, wire stability) deserve a vet-grade
// guardian. There is one drive mode: CheckModule loads the whole module
// from source (source.go) and runs every analyzer over every package in
// dependency order, sharing facts in-process.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fact files.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Match, when non-nil, restricts which package paths the driver runs
	// the analyzer on (test harnesses bypass it and call Run directly).
	Match func(pkgPath string) bool
	// Run performs the check. Diagnostics go through pass.Reportf; facts
	// for downstream packages through pass.ExportFact.
	Run func(pass *Pass) error
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass connects one Analyzer run to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *FactSet
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportFact publishes a (key, value) fact about the current package,
// visible to later passes of the same analyzer over importing packages.
func (p *Pass) ExportFact(key, value string) {
	p.facts.put(p.Pkg.Path(), p.Analyzer.Name, key, value)
}

// Fact looks up a fact exported by this analyzer for the given package
// (the current package included).
func (p *Pass) Fact(pkgPath, key string) (string, bool) {
	return p.facts.get(pkgPath, p.Analyzer.Name, key)
}

// FactsWithPrefix returns every visible fact of this analyzer whose key
// starts with prefix, as sorted "key\x00value" pairs — deterministic
// iteration for callers that need to scan the fact space.
func (p *Pass) FactsWithPrefix(prefix string) []FactKV {
	return p.facts.withPrefix(p.Analyzer.Name, prefix)
}

// FactKV is one fact key/value pair.
type FactKV struct{ Key, Value string }

// runAnalyzers executes every matching analyzer against one package and
// returns the diagnostics in (position, analyzer) order. The FactSet is
// shared across packages by the calling driver; each run may both read
// upstream facts and export its own.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, facts *FactSet) ([]Diagnostic, error) {

	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunForTest runs one analyzer over a loaded package against a
// caller-owned fact set, bypassing Match — the checktest harness's entry
// point. The error return of the analyzer fails the test via errf.
func RunForTest(errf interface{ Fatalf(string, ...any) }, a *Analyzer,
	fset *token.FileSet, lp *LoadedPackage, facts *FactSet) []Diagnostic {

	unmatched := *a
	unmatched.Match = nil
	diags, err := runAnalyzers([]*Analyzer{&unmatched}, fset, lp.Files, lp.Pkg, lp.Info, facts)
	if err != nil {
		errf.Fatalf("analyzer %s: %v", a.Name, err)
	}
	return diags
}

// newTypesInfo returns a fully populated types.Info ready for Check.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
