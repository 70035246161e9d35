package pairs

import (
	"fmt"
	"testing"
	"time"

	"enblogue/internal/tier"
)

// tierTestConfig is a single-shard tracker with a tiny pair budget and a
// tail tier sized so the test's demotions cannot collide in the sketch.
func tierTestConfig() Config {
	return Config{
		Buckets: 8, Resolution: time.Hour,
		MaxPairs: 30, Shards: 1,
		Tail: &tier.Config{Epsilon: 0.001, Delta: 0.001, TopK: 256},
	}
}

// TestTailDemoteRepromoteSeedsUpperBound walks one pair through the full
// two-tier cycle — evicted, demoted, demoted again, promoted back, evicted
// once more — and checks that the repromoted counter carries the
// sketch-seeded upper bound and the approximate flag, and that the flag
// and the seeded-pair count go when the pair does.
//
// The construction is exact. Pair P ("a0","a1") has the smallest rendered
// key, so whenever every tracked pair holds count 1, an over-budget sweep
// evicts P first (eviction ranks by (count, key)). MaxPairs 30 gives an
// eviction target of 27, so a sweep fires when the 31st pair lands and
// evicts the 4 smallest.
func TestTailDemoteRepromoteSeedsUpperBound(t *testing.T) {
	tr := NewShardedTracker(tierTestConfig())
	p := MakeKey("a0", "a1")
	demoted := map[Key]float64{}
	events := 0
	tr.SetOnEvict(func(k Key, count float64) { demoted[k] += count; events++ })
	approxSeeded := func(k Key) bool {
		_, ok := tr.shards[k.Shard(len(tr.shards))].approx[k]
		return ok
	}

	at := shT0
	single := func(prefix string, i int) {
		tr.observe(at, []string{fmt.Sprintf("%sa%02d", prefix, i), fmt.Sprintf("%sb%02d", prefix, i)}, nil)
	}

	// Phase A: P enters, 34 singleton pairs overflow the budget twice.
	// Sweep 1 (at 31 pairs) evicts P and the 3 smallest z-pairs; sweep 2
	// evicts 4 more z-pairs; the phase ends exactly at the 27-pair target.
	tr.observe(at, []string{"a0", "a1"}, nil)
	for i := 0; i < 34; i++ {
		single("z", i)
	}
	if got := tr.ActivePairs(); got != 27 {
		t.Fatalf("after phase A: %d active pairs, want 27", got)
	}
	if demoted[p] != 1 {
		t.Fatalf("P demoted mass %v after phase A, want 1", demoted[p])
	}

	// Phase B: P re-enters (count 1 again — eviction destroyed its history),
	// three fresh pairs push the tracker to 31, and the sweep evicts P a
	// second time. Its sketch estimate is now 2; every other victim holds 1,
	// and the admission floor is 1.
	tr.observe(at, []string{"a0", "a1"}, nil)
	for i := 0; i < 3; i++ {
		single("y", i)
	}
	if got := tr.ActivePairs(); got != 27 {
		t.Fatalf("after phase B: %d active pairs, want 27", got)
	}
	if demoted[p] != 2 {
		t.Fatalf("P demoted mass %v after phase B, want 2", demoted[p])
	}

	// Promotion: only P's estimate (2) strictly beats the floor (1).
	if got := tr.PromoteTail(at); got != 1 {
		t.Fatalf("PromoteTail promoted %d pairs, want exactly P", got)
	}
	if !approxSeeded(p) {
		t.Fatal("repromoted pair not flagged approximate")
	}
	if got := tr.Cooccurrence(p); got != demoted[p] {
		t.Fatalf("repromoted counter %v, want sketch-seeded upper bound %v", got, demoted[p])
	}
	// Promotion removed P from the tail summaries: nothing left to promote.
	if got := tr.PromoteTail(at); got != 0 {
		t.Fatalf("second PromoteTail promoted %d pairs, want 0", got)
	}

	ts := tr.TailStats()
	if !ts.Enabled {
		t.Fatal("TailStats.Enabled false with tail configured")
	}
	if ts.Promotions != 1 || ts.ApproxSeededPairs != 1 {
		t.Fatalf("promotions %d / approx-seeded %d, want 1 / 1", ts.Promotions, ts.ApproxSeededPairs)
	}
	if len(ts.EvictedByShard) != 1 || len(ts.DemotedByShard) != 1 {
		t.Fatalf("per-shard slices sized %d/%d, want 1/1", len(ts.EvictedByShard), len(ts.DemotedByShard))
	}
	if got := ts.EvictedByShard[0]; got != int64(events) {
		t.Fatalf("evicted counter %d, want %d observed evictions", got, events)
	}
	if got := ts.DemotedByShard[0]; got != int64(events) {
		t.Fatalf("demoted counter %d, want %d — every eviction feeds the tail", got, events)
	}
	if ts.TailPairs == 0 || ts.ErrorBound <= 0 {
		t.Fatalf("tail pairs %d / error bound %v, want both positive", ts.TailPairs, ts.ErrorBound)
	}

	// A fresh observation of the promoted pair accumulates on top of the
	// seed — the counter keeps covering pre-eviction mass.
	tr.observe(at, []string{"a0", "a1"}, nil)
	if got := tr.Cooccurrence(p); got != demoted[p]+1 {
		t.Fatalf("counter %v after one more observation, want %v", got, demoted[p]+1)
	}

	// Phase C: evict P again. Its count (3) beats every other pair's (1),
	// so fresh pairs observed five times each crowd it out: each
	// over-budget sweep evicts the smallest, and P goes once the older
	// singletons have. Dropping P clears its approximate flag and the
	// seeded-pair counter.
	for i := 0; i < 100 && approxSeeded(p); i++ {
		for n := 0; n < 5; n++ {
			single("zz", i)
		}
	}
	if approxSeeded(p) {
		t.Fatal("P still flagged approximate after phase C")
	}
	if got := tr.Cooccurrence(p); got != 0 {
		t.Fatalf("P still tracked with count %v after phase C", got)
	}
	if demoted[p] != 2+3 {
		t.Fatalf("P evicted mass %v after phase C, want 5 (a third eviction at count 3)", demoted[p])
	}
	if got := tr.TailStats().ApproxSeededPairs; got != 0 {
		t.Fatalf("approx-seeded pairs %d after P left, want 0", got)
	}
}

// TestTailStatsWithTierDisabled pins the counters that predate the tier:
// per-shard eviction counts are live without a tail, demotion counts and
// tier fields stay zero.
func TestTailStatsWithTierDisabled(t *testing.T) {
	cfg := tierTestConfig()
	cfg.Tail = nil
	cfg.Shards = 4
	tr := NewShardedTracker(cfg)
	if tr.TailStats().Enabled {
		t.Fatal("TailStats.Enabled true without a tail config")
	}

	at := shT0
	for i := 0; i < 64; i++ {
		tr.observe(at, []string{fmt.Sprintf("za%02d", i), fmt.Sprintf("zb%02d", i)}, nil)
	}
	ts := tr.TailStats()
	if ts.Enabled {
		t.Fatal("TailStats.Enabled true without a tail")
	}
	if len(ts.EvictedByShard) != 4 || len(ts.DemotedByShard) != 4 {
		t.Fatalf("per-shard slices sized %d/%d, want 4/4", len(ts.EvictedByShard), len(ts.DemotedByShard))
	}
	var evicted, demotedN int64
	for i := range ts.EvictedByShard {
		evicted += ts.EvictedByShard[i]
		demotedN += ts.DemotedByShard[i]
	}
	if evicted == 0 {
		t.Fatal("no evictions counted despite budget overflow")
	}
	if demotedN != 0 || ts.TailPairs != 0 || ts.Promotions != 0 {
		t.Fatalf("tier-disabled stats carry tier state: %+v", ts)
	}
	if got := tr.PromoteTail(at); got != 0 {
		t.Fatalf("PromoteTail promoted %d pairs without a tail", got)
	}
}
