// Package analysis registers the enbloguevet analyzer suite: four
// project-specific invariant checkers built on the dependency-free driver
// in internal/analysis/driver. TestSuite runs them over the whole module,
// so `go test ./...` fails on any violation. See DESIGN.md §9 for the
// invariants each one machine-checks and the //enblogue: annotation
// grammar they share.
package analysis

import (
	_ "embed"
	"fmt"

	"enblogue/internal/analysis/detdiscipline"
	"enblogue/internal/analysis/driver"
	"enblogue/internal/analysis/hotpathalloc"
	"enblogue/internal/analysis/lockdiscipline"
	"enblogue/internal/analysis/wirestable"
)

// wireManifestJSON is the committed record of the /v1 wire surface;
// wirestable diffs source against it. Regenerate with
// `enbloguevet -write-wiremanifest` and review the diff.
//
//go:embed wiremanifest.json
var wireManifestJSON []byte

// WireManifestPath locates the committed manifest relative to the module
// root, for the regeneration path.
const WireManifestPath = "internal/analysis/wiremanifest.json"

// WireManifest parses the embedded manifest.
func WireManifest() (wirestable.Manifest, error) {
	return wirestable.ParseManifest(wireManifestJSON)
}

// Suite returns every enbloguevet analyzer, wired to the committed wire
// manifest, in stable order.
func Suite() ([]*driver.Analyzer, error) {
	m, err := WireManifest()
	if err != nil {
		return nil, err
	}
	return []*driver.Analyzer{
		detdiscipline.Analyzer,
		lockdiscipline.Analyzer,
		hotpathalloc.Analyzer,
		wirestable.New(m),
	}, nil
}

// CheckModule runs the Suite over every package of the module enclosing
// dir and returns one "file:line:col: message" line per diagnostic. It is
// the whole check, shared by `go run ./cmd/enbloguevet` and TestSuite.
func CheckModule(dir string) ([]string, error) {
	suite, err := Suite()
	if err != nil {
		return nil, err
	}
	modPath, modDir, err := driver.ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset, diags, err := driver.CheckModule(suite, modPath, modDir)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s", fset.Position(d.Pos), d.Message)
	}
	return out, nil
}

// GenerateWireManifest re-derives the wire manifest for a whole module
// from source — the `enbloguevet -write-wiremanifest` path.
func GenerateWireManifest(modPath, modDir string) (wirestable.Manifest, error) {
	l := driver.NewLoader(modPath, modDir)
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	out := make(wirestable.Manifest)
	for _, p := range paths {
		lp, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pass := &driver.Pass{Fset: l.Fset, Files: lp.Files, Pkg: lp.Pkg, TypesInfo: lp.Info}
		for key, fields := range wirestable.ManifestFor(pass) {
			out[key] = fields
		}
	}
	return out, nil
}
