// Package checktest is the suite's analysistest equivalent: it loads a
// package from an analyzer's testdata/src tree, runs the analyzer, and
// diffs the reported diagnostics against `// want` expectations embedded
// in the test sources.
//
// Expectation grammar, one per offending line (same line or trailing):
//
//	x := foo() // want `regexp` `another regexp`
//
// Every diagnostic must match a want on its line, every want must be hit
// exactly once, and unmatched members of either set fail the test with
// exact positions — so the testdata packages double as a precise
// specification of each analyzer's diagnostics.
package checktest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"enblogue/internal/analysis/driver"
)

var wantRE = regexp.MustCompile("`([^`]+)`")

func readFile(name string) (string, error) {
	data, err := os.ReadFile(name)
	return string(data), err
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run checks each named fixture testdata/src/<name> (relative to the
// calling test's directory) exactly as enbloguevet checks the module: the
// fixture is a module whose path is <name>, its packages are analyzed in
// dependency order, a subdirectory with its own go.mod is a use-only
// root, and Finish runs last. The analyzer's Match is bypassed. The
// reported diagnostics must match the // want expectations in the
// fixture's files.
//
//enblogue:reference the fixture harness: only the analyzers' own tests call it
func Run(t *testing.T, testdata string, a *driver.Analyzer, names ...string) {
	t.Helper()
	unmatched := *a
	unmatched.Match = nil
	for _, name := range names {
		dir := filepath.Join(testdata, "src", name)
		fset, diags, err := driver.CheckModule([]*driver.Analyzer{&unmatched}, name, dir)
		if err != nil {
			t.Fatalf("checking %s: %v", dir, err)
		}
		checkWants(t, fset, name, dir, diags)
	}
}

func checkWants(t *testing.T, fset *token.FileSet, pkg, dir string, diags []driver.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, dir)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pkg, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched `%s`", pkg, w.file, w.line, w.raw)
		}
	}
}

func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.line == line && w.file == file && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants re-parses the package's comments for `// want` markers.
func collectWants(t *testing.T, fset *token.FileSet, dir string) []*want {
	t.Helper()
	var wants []*want
	fset.Iterate(func(f *token.File) bool {
		if !strings.HasPrefix(f.Name(), dir+string(filepath.Separator)) {
			return true
		}
		src, err := readFile(f.Name())
		if err != nil {
			t.Fatal(err)
			return false
		}
		for i, line := range strings.Split(src, "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(marker, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", f.Name(), i+1, m[1], err)
				}
				wants = append(wants, &want{file: f.Name(), line: i + 1, re: re, raw: m[1]})
			}
		}
		return true
	})
	return wants
}
