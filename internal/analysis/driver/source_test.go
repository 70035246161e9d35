package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestModulePackagesSkipsWhatGoListSkips builds a module whose only
// package is its root, beside a nested module, a testdata package and a
// hidden directory — none of which `go list ./...` reports. The nested
// module comes back separately, as a use-only root.
func TestModulePackagesSkipsWhatGoListSkips(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module example.com/m\n",
		"m.go":                "package m\n",
		"m_test.go":           "package m\n",
		"nested/go.mod":       "module example.com/m/nested\n",
		"nested/n.go":         "package nested\n",
		"testdata/src/t/t.go": "package t\n",
		".hidden/h.go":        "package h\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	modPath, modDir, err := ModuleRoot(filepath.Join(root, "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "example.com/m" || modDir != root {
		t.Fatalf("ModuleRoot = %q, %q; want example.com/m, %q", modPath, modDir, root)
	}
	got, nested, err := NewLoader(modPath, modDir).ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"example.com/m"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ModulePackages = %q, want %q", got, want)
	}
	if want := []string{"example.com/m/nested"}; !reflect.DeepEqual(nested, want) {
		t.Errorf("ModulePackages nested = %q, want %q", nested, want)
	}
}
