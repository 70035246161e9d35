package deadsurface_test

import (
	"testing"

	"enblogue/internal/analysis/checktest"
	"enblogue/internal/analysis/deadsurface"
)

func TestDeadSurface(t *testing.T) {
	checktest.Run(t, "testdata", deadsurface.Analyzer, "deadgood", "deadbad")
}
