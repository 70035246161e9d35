// Package hotpathalloc guards the zero-allocation ingest path won in
// PR 3 and PR 5 (steady-state Consume: 1 alloc/doc; ConsumeBatch: ~0).
// The AllocsPerRun regression tests catch a regression after the fact at
// test time; this analyzer catches the constructs that cause them at vet
// time, in any function annotated `//enblogue:hotpath`:
//
//   - map, slice, or &T{} composite literals inside a loop (a fresh heap
//     object per iteration);
//   - make() or new() inside a loop;
//   - func literals outside direct call-argument position (assigned or
//     escaping closures allocate; sort comparators passed directly to a
//     call typically do not);
//   - append in a loop to a slice variable the function declared without
//     capacity (`var s []T` / `s := []T{}`): un-pre-sized growth —
//     appending to reused buffers (`s := buf[:0]`), parameters, or
//     make-with-capacity slices is fine;
//   - any call into fmt (formatting boxes every operand);
//   - explicit conversions to interface types (boxing).
//
// A construct the optimiser provably elides — e.g. a non-escaping closure
// covered by an AllocsPerRun test — can be waived line-by-line with
// `//enblogue:alloc-ok <reason>`; the mandatory reason names the proof.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"enblogue/internal/analysis/annotation"
	"enblogue/internal/analysis/driver"
)

// Analyzer is the hotpathalloc analyzer.
var Analyzer = &driver.Analyzer{
	Name:  "hotpathalloc",
	Doc:   "forbid allocation-forcing constructs in //enblogue:hotpath functions",
	Match: func(pkgPath string) bool { return strings.HasPrefix(pkgPath, "enblogue") },
	Run:   run,
}

func run(pass *driver.Pass) error {
	for _, f := range pass.Files {
		var idx *annotation.LineIndex // built lazily, most files have no hotpath funcs
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotation.Has(annotation.Funcs(fd), "hotpath") {
				continue
			}
			if idx == nil {
				idx = annotation.IndexFile(pass.Fset, f)
			}
			check(pass, idx, fd)
		}
	}
	return nil
}

type hotChecker struct {
	pass *driver.Pass
	idx  *annotation.LineIndex
	fd   *ast.FuncDecl
	// directArgLits are func literals appearing directly as call
	// arguments — the tolerated position.
	directArgLits map[*ast.FuncLit]bool
	// presized maps local slice vars to whether their declaration
	// pre-sizes them (make with capacity, reslice of an existing buffer,
	// parameter, copy of another value).
	presized map[*types.Var]bool
}

func check(pass *driver.Pass, idx *annotation.LineIndex, fd *ast.FuncDecl) {
	hc := &hotChecker{
		pass:          pass,
		idx:           idx,
		fd:            fd,
		directArgLits: make(map[*ast.FuncLit]bool),
		presized:      make(map[*types.Var]bool),
	}
	hc.prescan()
	hc.walk(fd.Body, 0)
}

// prescan records func-literal positions and slice-variable declarations
// before the reporting walk.
func (hc *hotChecker) prescan() {
	ast.Inspect(hc.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					hc.directArgLits[fl] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) && len(n.Rhs) != 1 {
					continue
				}
				v, ok := hc.pass.TypesInfo.Defs[id].(*types.Var)
				if !ok || !isSlice(v.Type()) {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					hc.presized[v] = presizingExpr(hc.pass, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := hc.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !isSlice(v.Type()) {
						continue
					}
					if i < len(vs.Values) {
						hc.presized[v] = presizingExpr(hc.pass, vs.Values[i])
					} else {
						hc.presized[v] = false // var s []T — grows from nil
					}
				}
			}
		}
		return true
	})
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// presizingExpr reports whether an initialiser yields a slice whose
// append growth is pre-paid: make with explicit length/capacity, a
// reslice of an existing buffer, a call result, or any expression that is
// not a from-nothing literal.
func presizingExpr(pass *driver.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if len(e.Args) >= 3 {
				return true // make([]T, n, c)
			}
			if len(e.Args) == 2 {
				// make([]T, n): pre-sized unless n is literally 0.
				if bl, ok := e.Args[1].(*ast.BasicLit); ok && bl.Value == "0" {
					return false
				}
				return true
			}
			return false
		}
		return true // result of another call: its capacity is its maker's business
	case *ast.SliceExpr:
		return true // buf[:0] — reuse of an existing allocation
	case *ast.CompositeLit:
		return false // []T{} or []T{...}: grows from its literal length
	case *ast.Ident:
		return e.Name != "nil"
	default:
		return true
	}
}

// walk reports violations; loopDepth counts enclosing for/range loops.
func (hc *hotChecker) walk(n ast.Node, loopDepth int) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		hc.walkChildren(n, loopDepth+1)
		return
	case *ast.RangeStmt:
		hc.walkChildren(n, loopDepth+1)
		return
	case *ast.CompositeLit:
		if loopDepth > 0 && hc.allocatingLit(n) && !hc.waived(n.Pos()) {
			hc.report(n.Pos(), "composite literal allocates on every loop iteration in hotpath %s: hoist it out of the loop or reuse a buffer", hc.fd.Name.Name)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND && loopDepth > 0 {
			if _, ok := n.X.(*ast.CompositeLit); ok && !hc.waived(n.Pos()) {
				hc.report(n.Pos(), "&composite literal allocates a heap object per loop iteration in hotpath %s", hc.fd.Name.Name)
			}
		}
	case *ast.CallExpr:
		hc.checkCall(n, loopDepth)
	case *ast.FuncLit:
		if !hc.directArgLits[n] && !hc.waived(n.Pos()) {
			hc.report(n.Pos(), "func literal in hotpath %s may allocate a closure: hoist it to a method or annotate //enblogue:alloc-ok <proof> if it provably does not escape", hc.fd.Name.Name)
		}
		hc.walkChildren(n, loopDepth)
		return
	}
	hc.walkChildren(n, loopDepth)
}

func (hc *hotChecker) walkChildren(n ast.Node, loopDepth int) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		if child != nil {
			hc.walk(child, loopDepth)
			return false // walk recursed already
		}
		return true
	})
}

func (hc *hotChecker) checkCall(call *ast.CallExpr, loopDepth int) {
	// Conversions to interface types box their operand.
	if tv, ok := hc.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && !hc.waived(call.Pos()) {
			hc.report(call.Pos(), "conversion to interface type %s boxes its operand in hotpath %s", tv.Type, hc.fd.Name.Name)
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if loopDepth > 0 && (fun.Name == "make" || fun.Name == "new") && isBuiltin(hc.pass, fun) && !hc.waived(call.Pos()) {
			hc.report(call.Pos(), "%s inside a loop allocates per iteration in hotpath %s: hoist it or reuse a buffer", fun.Name, hc.fd.Name.Name)
		}
		if fun.Name == "append" && isBuiltin(hc.pass, fun) && loopDepth > 0 {
			hc.checkAppend(call)
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := hc.pass.TypesInfo.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" && !hc.waived(call.Pos()) {
				hc.report(call.Pos(), "call to fmt.%s in hotpath %s: formatting boxes every operand; build strings by hand or move formatting off the hot path", fun.Sel.Name, hc.fd.Name.Name)
			}
		}
	}
}

func isBuiltin(pass *driver.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func (hc *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	v, ok := hc.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	presized, declaredHere := hc.presized[v]
	if declaredHere && !presized && !hc.waived(call.Pos()) {
		hc.report(call.Pos(), "append to %s grows an un-pre-sized slice inside a loop in hotpath %s: declare it with make(..., 0, cap) or reuse a buffer (buf[:0])", id.Name, hc.fd.Name.Name)
	}
}

// allocatingLit reports whether a composite literal heap-allocates when
// (re)built: map and slice literals do; struct/array values do not.
func (hc *hotChecker) allocatingLit(cl *ast.CompositeLit) bool {
	tv, ok := hc.pass.TypesInfo.Types[cl]
	if !ok {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

func (hc *hotChecker) waived(pos token.Pos) bool {
	anns := hc.idx.At(pos, "alloc-ok")
	for _, a := range anns {
		if a.Reason() != "" {
			return true
		}
		hc.report(a.Pos, "enblogue:alloc-ok needs a reason: name the proof that this construct does not allocate")
		return true
	}
	return false
}

func (hc *hotChecker) report(pos token.Pos, format string, args ...any) {
	hc.pass.Reportf(pos, format, args...)
}
