package enblogue_test

import (
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
