package pairs

import (
	"sort"
	"time"

	"enblogue/internal/intern"
	"enblogue/internal/tier"
	"enblogue/internal/window"
)

// Config parameterises a Tracker.
type Config struct {
	// Buckets and Resolution define the co-occurrence sliding window.
	Buckets    int
	Resolution time.Duration
	// MaxPairs caps tracked pairs; when exceeded at sweep time the pairs
	// with the smallest windowed co-occurrence are evicted first, down to
	// 10% below the cap so a saturated tracker does not re-sweep on every
	// document. Zero means 100000.
	MaxPairs int
	// SweepEvery controls eviction frequency in observed documents.
	// Zero means 2048.
	SweepEvery int
	// Shards partitions the pair space for ShardedTracker; the serial
	// Tracker ignores it. Zero or one means a single shard.
	Shards int
	// Tail, when non-nil, enables the cold tier (internal/tier) on the
	// ShardedTracker: pairs evicted over MaxPairs are demoted into a
	// per-shard windowed Count-Min sketch + heavy-hitter summary instead of
	// being forgotten, and are promoted back — counter seeded from the
	// upper-bound sketch estimate — when their estimate crosses the
	// admission floor (PromoteTail). Tail.Span is ignored; the tracker sets
	// it to its own window span so tail decay matches counter decay. Nil
	// disables the tier: eviction forgets, exactly as before.
	Tail *tier.Config
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Buckets == 0 {
		out.Buckets = 48
	}
	if out.Resolution == 0 {
		out.Resolution = time.Hour
	}
	if out.MaxPairs == 0 {
		out.MaxPairs = 100000
	}
	if out.SweepEvery == 0 {
		out.SweepEvery = 2048
	}
	return out
}

// The candidate rule, shared by the serial and sharded trackers (each
// inlines the double loop to keep its hot path closure-free): every
// unordered pair of distinct tags from the document's tag set — as
// intern.Dedup forms it, the one tag-set rule — of which at least one is a
// seed; a nil predicate admits every pair. The rule must stay identical
// across trackers — another leg of the bit-identical-rankings guarantee.

// evictTarget is the post-eviction size for an over-budget tracker: 10%
// below MaxPairs (never below 1). The hysteresis keeps a saturated tracker
// from re-triggering an over-budget sweep — a walk of every tracked pair
// plus a ranking of the victims — on every subsequent document that adds
// one new entry.
func evictTarget(maxPairs int) int {
	t := maxPairs - maxPairs/10
	if t < 1 {
		t = 1
	}
	return t
}

// Tracker maintains windowed co-occurrence counts for candidate tag pairs.
// Candidates are generated per document: every unordered pair of distinct
// document tags of which at least one satisfies the seed predicate ("pairs
// of tags that contain at least one seed tag"). Counters live in a shared
// CounterArena slab rather than one heap object per pair. Not safe for
// concurrent use.
//
//enblogue:reference the serial model batch_test and sharded_test check ShardedTracker against
type Tracker struct {
	cfg     Config
	slots   map[Key]int32
	arena   *window.CounterArena
	now     time.Time
	sinceGC int

	// onEvict, when set, observes every over-budget eviction with the
	// victim's windowed count at eviction time — the seam the cold tier
	// (and tests cross-validating sketch estimates against ground truth)
	// hang off. Emptied-window drops are not reported: their count is zero,
	// there is nothing to remember.
	onEvict func(Key, float64)

	// per-document scratch, reused so steady-state Observe allocates
	// nothing.
	dedup intern.Dedup
	ids   []uint32
	seed  []bool
}

// NewTracker returns a pair tracker with the given configuration.
func NewTracker(cfg Config) *Tracker {
	c := cfg.withDefaults()
	return &Tracker{
		cfg:   c,
		slots: make(map[Key]int32),
		arena: window.NewCounterArena(c.Buckets, c.Resolution),
	}
}

// Observe records one document's tag set at time t, incrementing the
// co-occurrence count of every candidate pair. isSeed decides candidacy; a
// nil isSeed treats every tag as a seed (all pairs tracked).
func (tr *Tracker) Observe(t time.Time, tags []string, isSeed func(string) bool) {
	if t.After(tr.now) {
		tr.now = t
	}
	if len(tags) < 2 {
		tr.maybeSweep()
		return
	}
	tr.ids = tr.dedup.Append(tr.ids[:0], tags)
	tr.seed = tr.seed[:0]
	if isSeed != nil {
		for _, id := range tr.ids {
			tr.seed = append(tr.seed, isSeed(intern.Lookup(id)))
		}
	}
	for i := 0; i < len(tr.ids); i++ {
		for j := i + 1; j < len(tr.ids); j++ {
			if isSeed != nil && !tr.seed[i] && !tr.seed[j] {
				continue
			}
			tr.inc(KeyFromIDs(tr.ids[i], tr.ids[j]), t)
		}
	}
	tr.maybeSweep()
}

// inc upserts pair k's arena slot and records the event at time t.
func (tr *Tracker) inc(k Key, t time.Time) {
	slot, ok := tr.slots[k]
	if !ok {
		slot = tr.arena.Alloc()
		tr.slots[k] = slot
	}
	tr.arena.Inc(slot, t)
}

func (tr *Tracker) maybeSweep() {
	tr.sinceGC++
	if tr.sinceGC < tr.cfg.SweepEvery && len(tr.slots) <= tr.cfg.MaxPairs {
		return
	}
	tr.sinceGC = 0
	//enblogue:unordered per-key delete of emptied counters; deletions are independent and commute
	for k, slot := range tr.slots {
		if tr.arena.ValueAt(slot, tr.now) == 0 {
			delete(tr.slots, k)
			tr.arena.Release(slot)
		}
	}
	if len(tr.slots) <= tr.cfg.MaxPairs {
		return
	}
	// Still over budget: evict the smallest co-occurrence counts, ties
	// broken by Key.Less — the plain full sort ShardedTracker's selection
	// kernel (selectSmallest) must reproduce victim for victim, which
	// FuzzSweepMatchesSerial checks; the sharded engine's
	// bit-identical-rankings guarantee depends on their agreeing.
	type counted struct {
		key Key
		v   float64
	}
	all := make([]counted, 0, len(tr.slots))
	//enblogue:unordered collects every pair; the sort ranks by (count, key), a strict total order independent of input order
	for k, slot := range tr.slots {
		all = append(all, counted{k, tr.arena.Value(slot)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v < all[j].v
		}
		return all[i].key.Less(all[j].key)
	})
	for _, e := range all[:len(all)-evictTarget(tr.cfg.MaxPairs)] {
		tr.arena.Release(tr.slots[e.key])
		delete(tr.slots, e.key)
		if tr.onEvict != nil {
			tr.onEvict(e.key, e.v)
		}
	}
}

// SetOnEvict installs the eviction observer; see the field doc. Must be
// set before the first Observe.
func (tr *Tracker) SetOnEvict(fn func(Key, float64)) { tr.onEvict = fn }

// Cooccurrence returns the number of windowed documents carrying both tags
// of the pair.
func (tr *Tracker) Cooccurrence(k Key) float64 {
	slot, ok := tr.slots[k]
	if !ok {
		return 0
	}
	return tr.arena.ValueAt(slot, tr.now)
}

// Series returns the per-bucket co-occurrence counts of the pair, oldest
// first, or nil if the pair is not tracked.
func (tr *Tracker) Series(k Key) []float64 {
	slot, ok := tr.slots[k]
	if !ok {
		return nil
	}
	tr.arena.Observe(slot, tr.now)
	return tr.arena.Series(slot)
}

// ActivePairs returns the number of pairs currently tracked.
func (tr *Tracker) ActivePairs() int { return len(tr.slots) }

// Keys returns all tracked pair keys in unspecified order. The slice is
// freshly allocated.
func (tr *Tracker) Keys() []Key {
	out := make([]Key, 0, len(tr.slots))
	//enblogue:unordered documented unspecified order; ranking consumers sort or select with a strict total order
	for k := range tr.slots {
		out = append(out, k)
	}
	return out
}
