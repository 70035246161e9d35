package analysis

import "testing"

// TestSuite is the analyzer gate: every enbloguevet analyzer over every
// package of the enclosing module, exactly as `go run ./cmd/enbloguevet`
// runs them. A violation fails the test with the analyzer's diagnostic.
func TestSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	diags, err := CheckModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
