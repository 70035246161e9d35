package shift

import (
	"time"
)

// Sharded partitions detector state across n independent Detectors, one per
// pair-space shard: shard i owns exactly the pairs with Key.Shard(n) == i.
// Each inner Detector is touched only by its shard's evaluation worker, so
// no locking is needed as long as callers respect the partition — evaluate
// pair k only on Shard(k.Shard(n)), from one goroutine per shard at a time.
//
// Per-pair scoring is independent across pairs, so splitting a global
// Detector into shards changes nothing about the scores — provided every
// shard agrees on the evaluation-round count. BeginTick keeps them in
// lockstep: the engine calls it once per tick (when at least one pair will
// be evaluated anywhere), advancing all shard detectors together exactly as
// a single detector would advance once.
type Sharded struct {
	dets []*Detector
}

// NewSharded returns a sharded detector with n shards (minimum 1), each
// configured with cfg.
func NewSharded(n int, cfg Config) *Sharded {
	if n < 1 {
		n = 1
	}
	dets := make([]*Detector, n)
	for i := range dets {
		dets[i] = NewDetector(cfg)
	}
	return &Sharded{dets: dets}
}

// Shard returns shard i's detector. The caller must only evaluate pairs
// whose Key.Shard(Shards()) == i on it.
func (s *Sharded) Shard(i int) *Detector { return s.dets[i] }

// BeginTick advances every shard detector's evaluation-round clock to t.
// Call once at the start of each tick that will evaluate at least one pair.
func (s *Sharded) BeginTick(t time.Time) {
	for _, d := range s.dets {
		d.BeginTick(t)
	}
}

// ActiveStates returns the total number of pairs with detector state.
func (s *Sharded) ActiveStates() int {
	n := 0
	for _, d := range s.dets {
		n += d.ActiveStates()
	}
	return n
}
