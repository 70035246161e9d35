package lib

import "testing"

// Uses from test files do not count.
func TestLib(t *testing.T) {
	if !TestOnly() || helper() != 1 {
		t.Fatal("fixture")
	}
}
