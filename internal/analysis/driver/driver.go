// Package driver is a minimal, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. It exists
// because this repository vendors nothing — the x/tools module is not
// available offline — yet the engine's invariants (determinism, lock
// discipline, hot-path allocation, wire stability, dead surface) deserve
// a vet-grade guardian. There is one drive mode: CheckModule loads the
// whole module from source (source.go) and runs every analyzer over every
// package in dependency order, sharing facts in-process, then runs each
// Finish hook once over the accumulated facts.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	// Finish, when non-nil, runs once after the last package, for checks
	// that need every package's facts (a declaration's uses come from its
	// importers). Its Pass has no package: Files, Pkg and TypesInfo are
	// nil and ExportFact must not be called. An analyzer with a Finish
	// hook also runs on the use-only roots (see CheckModule).
	Finish func(pass *Pass) error
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

// runAnalyzers executes every matching analyzer against one package,
// appending its diagnostics to diags. The FactSet is shared across
// packages by CheckModule; each run may both read upstream facts and
// export its own.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, lp *LoadedPackage,
	facts *FactSet, diags *[]Diagnostic) error {

	for _, a := range analyzers {
		if a.Match != nil && !a.Match(lp.Pkg.Path()) {
			continue
		}
		pass := newPass(a, fset, facts, diags)
		pass.Files, pass.Pkg, pass.TypesInfo = lp.Files, lp.Pkg, lp.Info
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %w", a.Name, lp.Pkg.Path(), err)
		}
	}
	return nil
}

func newPass(a *Analyzer, fset *token.FileSet, facts *FactSet, diags *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     fset,
		facts:    facts,
		report:   func(d Diagnostic) { *diags = append(*diags, d) },
	}
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
