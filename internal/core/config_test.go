package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"enblogue/internal/shift"
)

// normalize must repair every nonsensical setting: a config assembled from
// hostile or buggy options can never build a wedged engine.
func TestConfigNormalizeRepairsNonsense(t *testing.T) {
	hostile := Config{
		WindowBuckets:    -3,
		WindowResolution: -time.Minute,
		TickEvery:        -time.Hour,
		SeedCount:        -1,
		SeedMinCount:     -5,
		SeedWarmupDocs:   -10,
		MaxPairs:         -100,
		Shards:           -2,
		HalfLife:         -time.Hour,
		MinCooccurrence:  -1,
		TopK:             0,
	}
	c := hostile.normalize()
	if c.WindowBuckets != 48 || c.WindowResolution != time.Hour {
		t.Errorf("window = %d × %v, want 48 × 1h", c.WindowBuckets, c.WindowResolution)
	}
	if c.TickEvery != c.WindowResolution {
		t.Errorf("TickEvery = %v, want one resolution", c.TickEvery)
	}
	if c.SeedCount != 50 || c.SeedMinCount != 3 || c.SeedWarmupDocs != 100 {
		t.Errorf("seeds = (%d, %v, %d), want (50, 3, 100)",
			c.SeedCount, c.SeedMinCount, c.SeedWarmupDocs)
	}
	if c.MaxPairs != 100000 {
		t.Errorf("MaxPairs = %d, want 100000", c.MaxPairs)
	}
	if c.Shards != runtime.GOMAXPROCS(0) {
		t.Errorf("Shards = %d, want GOMAXPROCS", c.Shards)
	}
	if c.HalfLife != shift.DefaultHalfLife {
		t.Errorf("HalfLife = %v, want default", c.HalfLife)
	}
	if c.MinCooccurrence != 2 || c.TopK != 20 {
		t.Errorf("(MinCooccurrence, TopK) = (%v, %d), want (2, 20)",
			c.MinCooccurrence, c.TopK)
	}
}

// A pair budget below the seed-set size would let the eviction loop purge
// every candidate the moment it is tracked; normalize clamps it up.
func TestConfigNormalizeClampsMaxPairsToSeedCount(t *testing.T) {
	c := Config{SeedCount: 500, MaxPairs: 7}.normalize()
	if c.MaxPairs != 500 {
		t.Errorf("MaxPairs = %d, want clamped to SeedCount 500", c.MaxPairs)
	}
	// Sane configs pass through untouched.
	c = Config{SeedCount: 10, MaxPairs: 5000}.normalize()
	if c.MaxPairs != 5000 || c.SeedCount != 10 {
		t.Errorf("sane config mangled: %+v", c)
	}
}

// Normalization is idempotent and New always builds from a normalized
// config, so even a hostile config yields a ticking engine.
func TestConfigNormalizeIdempotentAndUsable(t *testing.T) {
	c := Config{TopK: -9, Shards: -1, MaxPairs: 1, SeedCount: 30}.normalize()
	if c2 := c.normalize(); !reflect.DeepEqual(c2, c) {
		t.Errorf("normalize not idempotent: %+v vs %+v", c2, c)
	}
	e := New(Config{TopK: -9, Shards: -1, MaxPairs: 1, SeedCount: 30})
	defer e.Close()
	if e.Config().TopK != 20 || e.Config().MaxPairs != 30 || e.Shards() < 1 {
		t.Errorf("engine built from un-normalized config: %+v", e.Config())
	}
}
