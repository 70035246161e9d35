package sketch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enblogue/internal/tagstats"
)

// The approximate synopsis must agree with the exact windowed statistics it
// is meant to stand in for: on a strongly Zipf-skewed stream, Count-Min
// estimates bracket the exact tracker's counts within the design error.
func TestSketchAgreesWithExactTagStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.6, 1, 499)

	exact := tagstats.NewTracker(tagstats.Config{
		Buckets: 1000, Resolution: time.Hour, // effectively unbounded window
	})
	cm := NewCountMinWithError(0.005, 0.01)

	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	const n = 30000
	for i := 0; i < n; i++ {
		tag := fmt.Sprintf("tag%03d", zipf.Uint64())
		exact.Observe(t0.Add(time.Duration(i)*time.Second), []string{tag})
		cm.Add(tag, 1)
	}

	// Count-Min: bounded one-sided error on every exact count.
	for tag, exactN := range exact.Counts() {
		want, got := uint64(exactN), cm.Count(tag)
		if got < want {
			t.Fatalf("Count-Min underestimated %s: %d < %d", tag, got, want)
		}
		if got > want+uint64(0.005*float64(n))+1 {
			t.Errorf("Count-Min overestimate on %s: %d vs %d", tag, got, want)
		}
	}
}
