// Package deadsurface keeps internal/ down to what the product uses. It
// reports every package-level func, method, type, var and const declared
// in an internal/ package that no non-test file uses outside its own
// declaration — exported or not, so the helpers a deletion orphans are
// caught too. Uses count from every package of the module and from the
// use-only roots the driver loads beside it (bench/).
//
// Exempt are methods that satisfy an interface some package mentions
// together with their type (heap.Interface, http.Handler, error), the
// fmt/json hooks reached through `any` (String, Error, MarshalJSON,
// UnmarshalJSON), and the methods of a type re-exported by an alias
// outside internal/ (the root package's public API). Deliberate
// reference code — a serial model a test checks the product against —
// stays behind an `//enblogue:reference <why>` waiver on its declaration;
// on a type the waiver also covers its methods. A waiver with no reason,
// or one on a declaration that is used after all, is reported.
//
// A declaration's uses come from its importers, so the check runs in two
// steps: Run exports decl:, ref: and use: facts per package, and Finish
// reports once every package has been seen.
package deadsurface

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"enblogue/internal/analysis/annotation"
	"enblogue/internal/analysis/driver"
)

// Analyzer is the deadsurface analyzer.
var Analyzer = &driver.Analyzer{
	Name:   "deadsurface",
	Doc:    "report internal/ declarations that no non-test code uses",
	Run:    run,
	Finish: finish,
}

// Fact keys are a prefix plus an object key (see key); decl: and ref:
// values are the token.Pos of the declared name, where both the unused
// declaration and a faulty waiver are reported.
const (
	declFact = "decl:"
	refFact  = "ref:"
	useFact  = "use:"
)

// dynamicHooks are the methods fmt and encoding/json find by type
// assertion on an `any`: no conversion to a named interface shows them.
var dynamicHooks = map[string]string{
	"String":        "func() string",
	"Error":         "func() string",
	"MarshalJSON":   "func() ([]byte, error)",
	"UnmarshalJSON": "func([]byte) error",
}

func run(pass *driver.Pass) error {
	if isInternal(pass.Pkg.Path()) {
		declare(pass)
	}
	recordUses(pass)
	recordInterfaceUses(pass)
	if !isInternal(pass.Pkg.Path()) {
		recordAliasUses(pass)
	}
	return nil
}

func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// key names a package-level object or concrete method: "<pkg> Name" or
// "<pkg> Recv.Name". It returns "" for anything else (locals, fields,
// interface methods, objects outside an internal/ package).
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !isInternal(obj.Pkg().Path()) {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return fn.Pkg().Path() + " " + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + " " + obj.Name()
}

// declare exports a decl: fact per package-level declaration and a ref:
// fact per waiver.
func declare(pass *driver.Pass) {
	add := func(id *ast.Ident, docs ...*ast.CommentGroup) {
		obj := pass.TypesInfo.Defs[id]
		if id.Name == "_" || id.Name == "init" || obj == nil || isDynamicHook(obj) {
			return
		}
		k, pos := key(obj), strconv.Itoa(int(id.Pos()))
		pass.ExportFact(declFact+k, pos)
		for _, doc := range docs {
			for _, a := range annotation.Parse(doc) {
				if a.Verb != "reference" {
					continue
				}
				if a.Reason() == "" {
					pass.Reportf(id.Pos(), "enblogue:reference on %s needs a reason: name the test that checks the product against it", id.Name)
				}
				pass.ExportFact(refFact+k, pos)
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, d.Doc, s.Doc)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, d.Doc, s.Doc)
						}
					}
				}
			}
		}
	}
}

func isDynamicHook(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil &&
		types.TypeString(fn.Type(), nil) == dynamicHooks[fn.Name()]
}

// recordUses exports a use: fact for every object the package's files
// use, except a use inside the object's own declaration (recursion,
// self-reference) or in a method's receiver.
func recordUses(pass *driver.Pass) {
	own := make(map[types.Object]ast.Node) // local object -> its declaration
	skip := make(map[*ast.Ident]bool)      // receiver type idents
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				own[pass.TypesInfo.Defs[d.Name]] = d
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own[pass.TypesInfo.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, name := range s.Names {
							own[pass.TypesInfo.Defs[name]] = s
						}
					}
				}
			}
		}
	}
	for id, obj := range pass.TypesInfo.Uses {
		if skip[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d := own[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		if k := key(obj); k != "" {
			pass.ExportFact(useFact+k, "")
		}
	}
}

// recordInterfaceUses counts a method as used when its type and an
// interface it helps satisfy both appear in the package: that is where a
// value of the type can be converted to the interface and the method
// called through it. Interfaces are gathered from expression and object
// types and from the parameters and results of signatures (heap.Init's
// heap.Interface); types from the types of expressions.
func recordInterfaceUses(pass *driver.Pass) {
	var ifaces []*types.Interface
	seen := make(map[types.Type]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[t] {
			seen[t] = true
			ifaces = append(ifaces, it)
		}
	}
	addType := func(t types.Type) {
		if t == nil {
			return
		}
		addIface(t)
		if sig, ok := t.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := range tup.Len() {
					addIface(tup.At(i).Type())
				}
			}
		}
	}
	named := make(map[*types.Named]bool)
	addNamed := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && isInternal(n.Obj().Pkg().Path()) {
			named[n] = true
		}
	}
	for _, tv := range pass.TypesInfo.Types {
		addType(tv.Type)
		addNamed(tv.Type)
	}
	for _, m := range []map[*ast.Ident]types.Object{pass.TypesInfo.Defs, pass.TypesInfo.Uses} {
		for _, obj := range m {
			if obj != nil {
				addType(obj.Type())
			}
		}
	}
	for n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), it.Method(i).Name())
				if k := key(m); k != "" {
					pass.ExportFact(useFact+k, "")
				}
			}
		}
	}
}

// recordAliasUses counts every method of a type that an alias outside
// internal/ re-exports: the alias makes the whole method set public API.
func recordAliasUses(pass *driver.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := range mset.Len() {
			if k := key(mset.At(i).Obj()); k != "" {
				pass.ExportFact(useFact+k, "")
			}
		}
	}
}

// finish reports every declaration with no use and no waiver, and every
// waiver that covers nothing unused.
func finish(pass *driver.Pass) error {
	used := make(map[string]bool)
	for _, kv := range pass.FactsWithPrefix(useFact) {
		used[strings.TrimPrefix(kv.Key, useFact)] = true
	}
	refs := pass.FactsWithPrefix(refFact)
	waived := make(map[string]bool, len(refs)) // waiver key -> covers an unused declaration
	for _, kv := range refs {
		waived[strings.TrimPrefix(kv.Key, refFact)] = false
	}
	for _, kv := range pass.FactsWithPrefix(declFact) {
		k := strings.TrimPrefix(kv.Key, declFact)
		if used[k] {
			continue
		}
		// A method is covered by a waiver on itself or on its type.
		cover := k
		if _, ok := waived[cover]; !ok {
			if i := strings.LastIndexByte(k, '.'); i > strings.IndexByte(k, ' ') {
				cover = k[:i]
			}
		}
		if _, ok := waived[cover]; ok {
			waived[cover] = true
			continue
		}
		_, name, _ := strings.Cut(k, " ")
		pass.Reportf(pos(kv.Value), "%s is used by no non-test code: delete it, or keep deliberate reference code with //enblogue:reference <why>", name)
	}
	for _, kv := range refs {
		k := strings.TrimPrefix(kv.Key, refFact)
		if !waived[k] {
			_, name, _ := strings.Cut(k, " ")
			pass.Reportf(pos(kv.Value), "stale enblogue:reference on %s: it is used by non-test code, drop the waiver", name)
		}
	}
	return nil
}

func pos(v string) token.Pos {
	n, _ := strconv.Atoi(v) // written by strconv.Itoa above
	return token.Pos(n)
}
