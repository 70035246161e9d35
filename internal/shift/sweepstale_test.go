package shift

import (
	"fmt"
	"testing"
	"time"

	"enblogue/internal/pairs"
)

// SweepStale must behave exactly like Sweep with a keep set containing the
// pairs evaluated at the sweep tick: evaluated pairs survive regardless of
// score, stale pairs survive only while their decayed score holds up.
func TestSweepStaleMatchesKeepSet(t *testing.T) {
	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	mk := func(i int) pairs.Key { return pairs.MakeKey(fmt.Sprintf("s%d", i), "x") }

	build := func() *Detector {
		d := NewDetector(Config{MinCooccurrence: 1, HalfLife: time.Hour})
		// Round one: everything warms up. Round two: real scores.
		for i := 0; i < 6; i++ {
			d.Evaluate(t0, mk(i), 5, 10, 10, 100)
		}
		for i := 0; i < 6; i++ {
			d.Evaluate(t0.Add(time.Hour), mk(i), 8, 10, 10, 100)
		}
		return d
	}

	// Far enough out that every decayed score is below the floor.
	later := t0.Add(100 * time.Hour)

	ref := build()
	keep := map[pairs.Key]bool{}
	for i := 0; i < 3; i++ {
		ref.Evaluate(later, mk(i), 8, 10, 10, 100)
		keep[mk(i)] = true
	}
	ref.Sweep(later, keep, 1e-9)

	got := build()
	for i := 0; i < 3; i++ {
		got.Evaluate(later, mk(i), 8, 10, 10, 100)
	}
	got.SweepStale(later, 1e-9)

	if got.ActiveStates() != ref.ActiveStates() {
		t.Fatalf("SweepStale kept %d states, keep-set Sweep kept %d",
			got.ActiveStates(), ref.ActiveStates())
	}
	for i := 0; i < 6; i++ {
		g := score(got, later, mk(i))
		r := score(ref, later, mk(i))
		if g != r {
			t.Errorf("pair %d: score %v vs reference %v", i, g, r)
		}
	}
	// The evaluated pairs must have survived; the stale below-floor ones
	// must be gone.
	if got.ActiveStates() != 3 {
		t.Errorf("ActiveStates = %d, want 3", got.ActiveStates())
	}
}
