package enblogue_test

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds builds and vets the nested benchmark module
// (bench/go.mod), which `./...` does not reach, so a product signature
// change that breaks the benchmark fails here. It writes nothing under
// bench/: the binary goes to the null device.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	for _, args := range [][]string{
		{"build", "-C", "bench", "-o", os.DevNull, "."},
		{"vet", "-C", "bench", "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}

// TestPublicAPIUnchanged pins the root package's exported surface — the
// user contract — to the committed api.txt, so a change to it is an
// explicit, reviewable diff.
func TestPublicAPIUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go doc")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	got, err := exec.Command("go", "doc", "-short", ".").Output()
	if err != nil {
		t.Fatalf("go doc -short .: %v", err)
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the public API differs from api.txt; if the change is intended, regenerate it with\n\tgo doc -short . > api.txt\ngot:\n%s", got)
	}
}
