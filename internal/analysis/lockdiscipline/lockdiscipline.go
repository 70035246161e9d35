// Package lockdiscipline machine-checks the engine's locking protocol.
// The codebase's convention — functions named *Locked assume a caller-held
// mutex, documented only in prose — becomes an annotation-driven contract:
//
//	//enblogue:lock <class> <order>   on a sync.Mutex/RWMutex struct field
//	    declares the field's lock class and its position in the global
//	    acquisition order (lower = outermost);
//	//enblogue:requires <class>       on a function: callers must hold the
//	    class when calling it;
//	//enblogue:acquires <class>       on a function: it takes and releases
//	    the class internally, so callers must NOT hold it, nor hold any
//	    class ordered after it.
//
// The analyzer then enforces, per function body, with a linear held-set
// simulation over the statement sequence:
//
//  1. every *Locked function carries a //enblogue:requires annotation;
//  2. a requires-annotated function is only called where its class is
//     held — by a lexical <field>.Lock() earlier in the body, or because
//     the caller is itself annotated with the class;
//  3. lock classes are acquired in ascending declared order: acquiring an
//     outer class (engine.mu) while holding an inner one (a tail-tier
//     lock) is the deadlock the sharded engine must never reach;
//  4. no class is acquired or (via an acquires-annotated callee)
//     re-entered while already held.
//
// The simulation is deliberately syntactic — it threads one held-set
// through the statement list, inherits nothing into func literals (their
// bodies are analyzed with an empty held-set, as goroutine bodies), and
// treats deferred unlocks as held-until-return. Where the approximation
// is provably too strict, a statement-level `//enblogue:locks-ok <reason>`
// waives a single line, and the reason is the reviewable proof.
// Annotations travel across packages as analysis facts, so core's use of
// the pairs tracker is checked against annotations declared in pairs.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"enblogue/internal/analysis/annotation"
	"enblogue/internal/analysis/driver"
)

// Analyzer is the lockdiscipline analyzer.
var Analyzer = &driver.Analyzer{
	Name:  "lockdiscipline",
	Doc:   "enforce //enblogue:lock/requires/acquires lock-class annotations and global lock ordering",
	Match: func(pkgPath string) bool { return strings.HasPrefix(pkgPath, "enblogue") },
	Run:   run,
}

const (
	classFact = "class\x00" // class\x00<name> -> <order>
	funcFact  = "func\x00"  // func\x00<funckey> -> "requires:<c> acquires:<c> ..."
)

type funcAnn struct {
	requires []string
	acquires []string
}

func (fa funcAnn) empty() bool { return len(fa.requires) == 0 && len(fa.acquires) == 0 }

func (fa funcAnn) encode() string {
	var parts []string
	for _, c := range fa.requires {
		parts = append(parts, "requires:"+c)
	}
	for _, c := range fa.acquires {
		parts = append(parts, "acquires:"+c)
	}
	return strings.Join(parts, " ")
}

func decodeFuncAnn(s string) funcAnn {
	var fa funcAnn
	for _, tok := range strings.Fields(s) {
		if c, ok := strings.CutPrefix(tok, "requires:"); ok {
			fa.requires = append(fa.requires, c)
		} else if c, ok := strings.CutPrefix(tok, "acquires:"); ok {
			fa.acquires = append(fa.acquires, c)
		}
	}
	return fa
}

// funcKey names a function unambiguously across packages:
// "pkgpath.Recv.Name" or "pkgpath.Name".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

type checker struct {
	pass    *driver.Pass
	orders  map[string]int          // lock class -> declared order
	fields  map[*types.Var]string   // local mutex field -> class
	anns    map[*types.Func]funcAnn // local annotated funcs
	waivers map[*ast.File]*annotation.LineIndex
}

func run(pass *driver.Pass) error {
	c := &checker{
		pass:    pass,
		orders:  make(map[string]int),
		fields:  make(map[*types.Var]string),
		anns:    make(map[*types.Func]funcAnn),
		waivers: make(map[*ast.File]*annotation.LineIndex),
	}
	// Imported class orders first, so local re-declarations can be
	// diffed against them.
	for _, kv := range pass.FactsWithPrefix(classFact) {
		if n, err := strconv.Atoi(kv.Value); err == nil {
			c.orders[strings.TrimPrefix(kv.Key, classFact)] = n
		}
	}
	c.collect()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(f, fd)
			}
		}
	}
	return nil
}

// collect gathers local lock-class fields and function annotations,
// validates them, and exports them as facts.
func (c *checker) collect() {
	pass := c.pass
	// Two passes: every lock class in the package must be known before any
	// function annotation is validated, whatever the file order.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				c.collectLockFields(st)
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				c.collectFuncAnn(fd)
			}
			return true
		})
	}
}

func (c *checker) collectLockFields(st *ast.StructType) {
	pass := c.pass
	for _, field := range st.Fields.List {
		anns := append(annotation.Parse(field.Doc), annotation.Parse(field.Comment)...)
		for _, a := range anns {
			if a.Verb != "lock" {
				continue
			}
			if len(a.Args) != 2 {
				pass.Reportf(a.Pos, "enblogue:lock wants <class> <order>, got %q", a.Reason())
				continue
			}
			order, err := strconv.Atoi(a.Args[1])
			if err != nil {
				pass.Reportf(a.Pos, "enblogue:lock order %q is not an integer", a.Args[1])
				continue
			}
			class := a.Args[0]
			if prev, ok := c.orders[class]; ok && prev != order {
				pass.Reportf(a.Pos, "lock class %q re-declared with order %d (previously %d): the acquisition order is global", class, order, prev)
				continue
			}
			c.orders[class] = order
			pass.ExportFact(classFact+class, strconv.Itoa(order))
			for _, name := range field.Names {
				v, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if !isMutexType(v.Type()) {
					pass.Reportf(a.Pos, "enblogue:lock on %s, which is not a sync.Mutex or sync.RWMutex", v.Type())
					continue
				}
				c.fields[v] = class
			}
		}
	}
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func (c *checker) collectFuncAnn(fd *ast.FuncDecl) {
	pass := c.pass
	anns := annotation.Funcs(fd)
	fa := funcAnn{
		requires: annotation.ArgsOf(anns, "requires"),
		acquires: annotation.ArgsOf(anns, "acquires"),
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") && len(fa.requires) == 0 {
		pass.Reportf(fd.Pos(),
			"%s follows the *Locked naming convention but lacks an //enblogue:requires <class> annotation declaring which lock its callers must hold",
			fd.Name.Name)
	}
	if fa.empty() {
		return
	}
	for _, class := range append(append([]string(nil), fa.requires...), fa.acquires...) {
		if _, ok := c.orders[class]; !ok {
			pass.Reportf(fd.Pos(), "%s references lock class %q, which no //enblogue:lock annotation declares", fd.Name.Name, class)
		}
	}
	c.anns[obj] = fa
	pass.ExportFact(funcFact+funcKey(obj), fa.encode())
}

// annFor resolves a callee's annotation, local or via facts.
func (c *checker) annFor(fn *types.Func) (funcAnn, bool) {
	if fa, ok := c.anns[fn]; ok {
		return fa, true
	}
	if fn.Pkg() == nil {
		return funcAnn{}, false
	}
	if enc, ok := c.pass.Fact(fn.Pkg().Path(), funcFact+funcKey(fn)); ok {
		return decodeFuncAnn(enc), true
	}
	return funcAnn{}, false
}

// waived reports whether pos carries a locks-ok waiver.
func (c *checker) waived(f *ast.File, pos token.Pos) bool {
	idx, ok := c.waivers[f]
	if !ok {
		idx = annotation.IndexFile(c.pass.Fset, f)
		c.waivers[f] = idx
	}
	return len(idx.At(pos, "locks-ok")) > 0
}

// --- the held-set simulation ---

type sim struct {
	c    *checker
	file *ast.File
	held []string // lock classes currently held, acquisition order
}

func (c *checker) checkFunc(f *ast.File, fd *ast.FuncDecl) {
	s := &sim{c: c, file: f}
	if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if fa, ok := c.anns[obj]; ok {
			s.held = append(s.held, fa.requires...)
		}
	}
	s.stmt(fd.Body)
}

func (s *sim) holding(class string) bool {
	for _, h := range s.held {
		if h == class {
			return true
		}
	}
	return false
}

func (s *sim) push(class string) { s.held = append(s.held, class) }

func (s *sim) pop(class string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i] == class {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

// orderViolation returns the first held class whose declared order is
// strictly after (inside) class's, i.e. acquiring class now would invert
// the global order.
func (s *sim) orderViolation(class string) (string, bool) {
	co, ok := s.c.orders[class]
	if !ok {
		return "", false
	}
	for _, h := range s.held {
		if ho, ok := s.c.orders[h]; ok && ho > co {
			return h, true
		}
	}
	return "", false
}

func (s *sim) stmt(n ast.Stmt) {
	switch n := n.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range n.List {
			s.stmt(st)
		}
	case *ast.ExprStmt:
		s.expr(n.X)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			s.expr(e)
		}
		for _, e := range n.Lhs {
			s.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			s.expr(e)
		}
	case *ast.IfStmt:
		s.stmt(n.Init)
		s.expr(n.Cond)
		s.stmt(n.Body)
		s.stmt(n.Else)
	case *ast.ForStmt:
		s.stmt(n.Init)
		if n.Cond != nil {
			s.expr(n.Cond)
		}
		s.stmt(n.Body)
		s.stmt(n.Post)
	case *ast.RangeStmt:
		s.expr(n.X)
		s.stmt(n.Body)
	case *ast.SwitchStmt:
		s.stmt(n.Init)
		if n.Tag != nil {
			s.expr(n.Tag)
		}
		s.stmt(n.Body)
	case *ast.TypeSwitchStmt:
		s.stmt(n.Init)
		s.stmt(n.Assign)
		s.stmt(n.Body)
	case *ast.SelectStmt:
		s.stmt(n.Body)
	case *ast.CaseClause:
		for _, e := range n.List {
			s.expr(e)
		}
		for _, st := range n.Body {
			s.stmt(st)
		}
	case *ast.CommClause:
		s.stmt(n.Comm)
		for _, st := range n.Body {
			s.stmt(st)
		}
	case *ast.LabeledStmt:
		s.stmt(n.Stmt)
	case *ast.IncDecStmt:
		s.expr(n.X)
	case *ast.SendStmt:
		s.expr(n.Chan)
		s.expr(n.Value)
	case *ast.DeferStmt:
		// A deferred unlock releases at return; in the linear model the
		// lock simply stays held for the rest of the body. Any other
		// deferred call is out of line-of-execution — walk its argument
		// expressions only.
		if class, kind, ok := s.lockOp(n.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			_ = class // held until return: no pop
			return
		}
		for _, a := range n.Call.Args {
			s.expr(a)
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks;
		// its body (if a func literal) is simulated with an empty
		// held-set by the expr walk below.
		s.expr(n.Call.Fun)
		for _, a := range n.Call.Args {
			s.expr(a)
		}
	}
}

// expr walks an expression in evaluation-ish (pre-)order, applying lock
// events and callee annotations, and simulating func literals in a fresh
// empty-held scope.
func (s *sim) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := &sim{c: s.c, file: s.file}
			inner.stmt(n.Body)
			return false
		case *ast.CallExpr:
			s.call(n)
			// Children (args, nested calls) visited by Inspect.
		}
		return true
	})
}

func (s *sim) call(call *ast.CallExpr) {
	if class, kind, ok := s.lockOp(call); ok {
		switch kind {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if s.waived(call) {
				return
			}
			if s.holding(class) {
				s.report(call, "acquiring lock class %q while already holding it: self-deadlock", class)
				return
			}
			if h, bad := s.orderViolation(class); bad {
				s.report(call, "lock order violation: acquiring %q (order %d) while holding %q (order %d); classes must be acquired outermost-first",
					class, s.c.orders[class], h, s.c.orders[h])
			}
			s.push(class)
		case "Unlock", "RUnlock":
			s.pop(class)
		}
		return
	}

	fn := s.callee(call)
	if fn == nil {
		return
	}
	fa, ok := s.c.annFor(fn)
	if !ok {
		return
	}
	for _, class := range fa.requires {
		if !s.holding(class) && !s.waived(call) {
			s.report(call, "call to %s requires lock class %q, which is not held here: acquire it first or annotate the caller //enblogue:requires %s",
				fn.Name(), class, class)
		}
	}
	for _, class := range fa.acquires {
		if s.waived(call) {
			continue
		}
		if s.holding(class) {
			s.report(call, "call to %s acquires lock class %q, which the caller already holds: self-deadlock", fn.Name(), class)
			continue
		}
		if h, bad := s.orderViolation(class); bad {
			s.report(call, "lock order violation: call to %s acquires %q (order %d) while holding %q (order %d); classes must be acquired outermost-first",
				fn.Name(), class, s.c.orders[class], h, s.c.orders[h])
		}
	}
}

func (s *sim) report(call *ast.CallExpr, format string, args ...any) {
	s.c.pass.Reportf(call.Pos(), format, args...)
}

func (s *sim) waived(call *ast.CallExpr) bool {
	return s.c.waived(s.file, call.Pos())
}

// lockOp recognises <classed-field>.Lock()/Unlock()/... calls and returns
// the lock class and method name.
func (s *sim) lockOp(call *ast.CallExpr) (class, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	v := s.fieldVar(sel.X)
	if v == nil {
		return "", "", false
	}
	class, found := s.c.fields[v]
	if !found {
		return "", "", false
	}
	return class, sel.Sel.Name, true
}

// fieldVar resolves the receiver expression of a lock call to a struct
// field variable, if it is one.
func (s *sim) fieldVar(e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if selection, ok := s.c.pass.TypesInfo.Selections[e]; ok {
			if v, ok := selection.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := s.c.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := s.c.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.ParenExpr:
		return s.fieldVar(e.X)
	case *ast.IndexExpr:
		return nil
	}
	return nil
}

// callee resolves a call expression to the invoked named function, if
// statically known.
func (s *sim) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := s.c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
