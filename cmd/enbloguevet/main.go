// Command enbloguevet machine-checks the engine's invariants: the
// determinism perimeter (detdiscipline), the lock annotation contract
// (lockdiscipline), the zero-allocation ingest path (hotpathalloc), and
// the frozen /v1 wire surface (wirestable). See DESIGN.md §9.
//
// It loads the enclosing module from source, with no go command in the
// loop, and runs the same check as `go test ./internal/analysis/`:
//
//	enbloguevet                       # check every package in the enclosing module
//	enbloguevet -write-wiremanifest   # regenerate the /v1 wire manifest
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"enblogue/internal/analysis"
	"enblogue/internal/analysis/driver"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "enbloguevet: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 1 {
		switch args[0] {
		case "-write-wiremanifest":
			return writeWireManifest()
		case "-h", "-help", "--help":
			usage()
			return nil
		}
	}
	// Tolerate `enbloguevet ./...` spellings: the check always covers the
	// whole module, which is what every caller here wants.
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			usage()
			return fmt.Errorf("unknown flag %s", a)
		}
	}
	diags, err := analysis.CheckModule(".")
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  enbloguevet                     check every package in the enclosing module
  enbloguevet -write-wiremanifest regenerate internal/analysis/wiremanifest.json
`)
}

// writeWireManifest re-derives the /v1 wire manifest from source and
// rewrites the committed JSON. The resulting diff is the review artifact
// for any wire-surface change.
func writeWireManifest() error {
	modPath, modDir, err := driver.ModuleRoot(".")
	if err != nil {
		return err
	}
	m, err := analysis.GenerateWireManifest(modPath, modDir)
	if err != nil {
		return err
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	out := filepath.Join(modDir, filepath.FromSlash(analysis.WireManifestPath))
	if err := os.WriteFile(out, data, 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "enbloguevet: wrote %s (%d wire structs)\n", out, len(m))
	return nil
}
