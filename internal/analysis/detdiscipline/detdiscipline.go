// Package detdiscipline enforces the engine's determinism contract: the
// ranking pipeline is event-time driven and must produce bit-identical
// rankings for every shard count, batch size, and replay of the same
// stream (DESIGN.md §4, §8). Non-test code in the ranking-affecting
// packages therefore must not
//
//   - read the wall clock (time.Now / time.Since / time.Until) — event
//     timestamps carried by the stream are the only clock;
//   - use math/rand or math/rand/v2 — there is no legitimate randomness
//     in the scoring path;
//   - iterate a map without declaring why the order cannot reach ranked
//     state: Go randomises map iteration order per run, so an
//     unannotated `range m` is a latent nondeterminism bug. Iterations
//     that are provably order-independent (commutative folds over ints,
//     collect-then-sort, per-key deletes) carry an
//     `//enblogue:unordered <reason>` annotation on or above the range
//     statement; the reason is mandatory and is the reviewable proof
//     obligation.
package detdiscipline

import (
	"go/ast"
	"go/types"

	"enblogue/internal/analysis/annotation"
	"enblogue/internal/analysis/driver"
)

// Packages is the determinism perimeter: every package whose state can
// reach a ranking. The server, broker, and ingest layers outside it may
// use wall clocks freely (uptime stats, flush timers).
var Packages = map[string]bool{
	"enblogue/internal/core":     true,
	"enblogue/internal/pairs":    true,
	"enblogue/internal/shift":    true,
	"enblogue/internal/window":   true,
	"enblogue/internal/tagstats": true,
	"enblogue/internal/intern":   true,
	"enblogue/internal/sketch":   true,
	"enblogue/internal/tier":     true,
}

// Analyzer is the detdiscipline analyzer.
var Analyzer = &driver.Analyzer{
	Name:  "detdiscipline",
	Doc:   "forbid wall clocks, randomness, and unannotated map iteration in ranking-affecting packages",
	Match: func(pkgPath string) bool { return Packages[pkgPath] },
	Run:   run,
}

func run(pass *driver.Pass) error {
	for _, f := range pass.Files {
		if len(f.Decls) == 0 {
			continue
		}
		idx := annotation.IndexFile(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				checkImport(pass, n)
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, idx, n)
			}
			return true
		})
	}
	return nil
}

func checkImport(pass *driver.Pass, spec *ast.ImportSpec) {
	switch spec.Path.Value {
	case `"math/rand"`, `"math/rand/v2"`:
		pass.Reportf(spec.Pos(),
			"import of %s in deterministic engine package %s: rankings must be replayable, use no randomness",
			spec.Path.Value, pass.Pkg.Path())
	}
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func checkWallClock(pass *driver.Pass, sel *ast.SelectorExpr) {
	if !wallClockFuncs[sel.Sel.Name] {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	pass.Reportf(sel.Pos(),
		"call to time.%s in deterministic engine package %s: the engine is event-time driven, derive times from the stream",
		sel.Sel.Name, pass.Pkg.Path())
}

func checkMapRange(pass *driver.Pass, idx *annotation.LineIndex, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	anns := idx.At(rs.Pos(), "unordered")
	if len(anns) > 0 {
		if anns[0].Reason() == "" {
			pass.Reportf(anns[0].Pos, "enblogue:unordered needs a reason: state why this iteration order cannot reach a ranking")
		}
		return
	}
	pass.Reportf(rs.Pos(),
		"unannotated map iteration in deterministic engine package %s: map order is randomised per run; prove order-independence and annotate //enblogue:unordered <reason>, or iterate a sorted slice",
		pass.Pkg.Path())
}
