// Package annotation parses the `//enblogue:` machine-checked comment
// grammar that the analysis suite enforces (see DESIGN.md §9):
//
//	//enblogue:requires <lock-class>          (func doc)  callers must hold the class
//	//enblogue:acquires <lock-class>          (func doc)  takes and releases the class internally
//	//enblogue:hotpath                        (func doc)  no allocation-forcing constructs inside
//	//enblogue:lock <class> <order>           (field doc/trailing)  declares a mutex field's class;
//	                                          lower order = outermost, classes must be acquired in
//	                                          ascending order
//	//enblogue:wire                           (type doc)  struct is part of the frozen /v1 contract
//	//enblogue:unordered <reason>             (stmt line or line above)  map iteration is provably
//	                                          order-independent; reason is mandatory
//	//enblogue:alloc-ok <reason>              (stmt line or line above)  waives one hotpath
//	                                          allocation diagnostic; reason is mandatory
//	//enblogue:reference <reason>             (decl doc)  keeps deliberate reference code that
//	                                          only tests use; on a type it covers the methods;
//	                                          reason is mandatory
//
// An annotation is a single comment line starting exactly with
// "//enblogue:" (no space — mirroring //go:build), followed by a verb and
// space-separated arguments.
package annotation

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment marker opening every annotation.
const Prefix = "//enblogue:"

// An Ann is one parsed annotation.
type Ann struct {
	Verb string   // "requires", "acquires", "hotpath", "lock", "wire", "unordered", "alloc-ok", "reference"
	Args []string // remaining space-separated tokens
	Pos  token.Pos
}

// Reason returns the whole argument list joined — the free-text
// justification of unordered / alloc-ok / reference waivers.
func (a Ann) Reason() string { return strings.Join(a.Args, " ") }

// Parse extracts annotations from one comment group (nil-safe).
func Parse(cg *ast.CommentGroup) []Ann {
	if cg == nil {
		return nil
	}
	var out []Ann
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, Prefix)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		out = append(out, Ann{Verb: fields[0], Args: fields[1:], Pos: c.Pos()})
	}
	return out
}

// Funcs returns the annotations on a function declaration's doc comment.
func Funcs(fd *ast.FuncDecl) []Ann { return Parse(fd.Doc) }

// Has reports whether anns contains verb.
func Has(anns []Ann, verb string) bool {
	for _, a := range anns {
		if a.Verb == verb {
			return true
		}
	}
	return false
}

// ArgsOf returns the first argument of every annotation with the verb —
// e.g. the lock classes of all `requires` annotations on one function.
func ArgsOf(anns []Ann, verb string) []string {
	var out []string
	for _, a := range anns {
		if a.Verb == verb && len(a.Args) > 0 {
			out = append(out, a.Args[0])
		}
	}
	return out
}

// A LineIndex locates statement-level annotations: an annotation applies
// to a line if it sits on that line (trailing comment) or the line
// directly above it.
type LineIndex struct {
	fset   *token.FileSet
	byLine map[int][]Ann
}

// IndexFile builds the line index for one file's comments.
func IndexFile(fset *token.FileSet, f *ast.File) *LineIndex {
	idx := &LineIndex{fset: fset, byLine: make(map[int][]Ann)}
	for _, cg := range f.Comments {
		for _, a := range Parse(cg) {
			line := fset.Position(a.Pos).Line
			idx.byLine[line] = append(idx.byLine[line], a)
		}
	}
	return idx
}

// At returns the annotations with the given verb that apply to the line
// holding pos (same line or the line above).
func (li *LineIndex) At(pos token.Pos, verb string) []Ann {
	line := li.fset.Position(pos).Line
	var out []Ann
	for _, a := range li.byLine[line-1] {
		if a.Verb == verb {
			out = append(out, a)
		}
	}
	for _, a := range li.byLine[line] {
		if a.Verb == verb {
			out = append(out, a)
		}
	}
	return out
}
