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

// smallTagSet bounds the document sizes handled by dedupTags' map-free
// quadratic scan. Nearly every real document has a handful of tags, so the
// common case allocates nothing at all.
const smallTagSet = 16

// dedupTags returns tags with empties and duplicates removed, preserving
// first-seen order; pair generation assumes a set. When the input is
// already clean — the overwhelming case — the input slice itself is
// returned, so callers must treat the result as transient and must not
// mutate it. Shared by the serial, sharded, and distribution trackers so
// candidate generation stays identical across them — the sharded engine's
// bit-identical-rankings guarantee depends on it.
func dedupTags(tags []string) []string {
	if len(tags) <= smallTagSet {
		clean := true
	check:
		for i, tag := range tags {
			if tag == "" {
				clean = false
				break
			}
			for j := 0; j < i; j++ {
				if tags[j] == tag {
					clean = false
					break check
				}
			}
		}
		if clean {
			return tags
		}
		uniq := make([]string, 0, len(tags))
	fill:
		for _, tag := range tags {
			if tag == "" {
				continue
			}
			for _, u := range uniq {
				if u == tag {
					continue fill
				}
			}
			uniq = append(uniq, tag)
		}
		return uniq
	}
	uniq := make([]string, 0, len(tags))
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if tag == "" || seen[tag] {
			continue
		}
		seen[tag] = true
		uniq = append(uniq, tag)
	}
	return uniq
}

// The candidate rule, shared by the serial and sharded trackers (each
// inlines the double loop to keep its hot path closure-free): every
// unordered pair of distinct tags from the deduplicated document tag set of
// which at least one is a seed; a nil predicate admits every pair. The rule
// must stay identical across trackers — another leg of the
// bit-identical-rankings guarantee.

// counted pairs an evictable entry with its windowed count, for
// deterministic smallest-first eviction.
type counted[K any] struct {
	key K
	v   float64
}

// evictTarget is the post-eviction size for an over-budget tracker: 10%
// below MaxPairs (never below 1). The hysteresis keeps a saturated tracker
// from re-triggering a full collect-and-sort sweep on every subsequent
// document that adds one new entry.
func evictTarget(maxPairs int) int {
	t := maxPairs - maxPairs/10
	if t < 1 {
		t = 1
	}
	return t
}

// evictSmallest deletes the entries with the smallest counts (ties broken
// by less on the keys, ascending) until at most keep remain, invoking drop
// for each victim with its windowed count — the count is what the tail
// tier absorbs on demotion, and victims arrive smallest-first so the last
// drop carries the admission floor. Every tracker's over-budget eviction
// routes through here so the ordering stays identical across the serial,
// sharded, and distribution paths — the sharded engine's
// bit-identical-rankings guarantee depends on it.
func evictSmallest[K any](all []counted[K], keep int, less func(a, b K) bool, drop func(K, float64)) {
	if len(all) <= keep {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v < all[j].v
		}
		return less(all[i].key, all[j].key)
	})
	for _, e := range all[:len(all)-keep] {
		drop(e.key, e.v)
	}
}

// keyLess is the eviction tie-break for pair keys: the rendered-string
// order, computed without rendering (Key.Less).
func keyLess(a, b Key) bool { return a.Less(b) }

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
	ids  []uint32
	seed []bool
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
	uniq := dedupTags(tags)
	tr.ids = tr.ids[:0]
	tr.seed = tr.seed[:0]
	for _, tag := range uniq {
		tr.ids = append(tr.ids, intern.Intern(tag))
		if isSeed != nil {
			tr.seed = append(tr.seed, isSeed(tag))
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
	// Still over budget: evict the smallest co-occurrence counts.
	all := make([]counted[Key], 0, len(tr.slots))
	//enblogue:unordered collects every pair; evictSmallest ranks by (count, key), a strict total order independent of input order
	for k, slot := range tr.slots {
		all = append(all, counted[Key]{k, tr.arena.Value(slot)})
	}
	evictSmallest(all, evictTarget(tr.cfg.MaxPairs), keyLess, func(k Key, count float64) {
		tr.arena.Release(tr.slots[k])
		delete(tr.slots, k)
		if tr.onEvict != nil {
			tr.onEvict(k, count)
		}
	})
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

// DistTracker maintains, per tag, the windowed distribution of tags that
// co-occur with it — the "documents represented by their entire tag sets"
// variant. Correlation between two tags is then a relative-entropy
// similarity of their co-tag usage distributions.
//
// Memory is bounded: the total number of (tag, co-tag) counters is capped at
// MaxPairs; when a sweep finds the tracker over budget, the counters with
// the smallest windowed counts are evicted first — the same policy the
// plain Tracker applies to pairs. Not safe for concurrent use: like
// ShardedTracker it is single-owner, and the engine calls it under its own
// lock.
type DistTracker struct {
	cfg      Config
	byTag    map[string]map[string]*window.Counter
	counters int // total (tag, co-tag) counters across byTag
	now      time.Time
	sinceGC  int
}

// NewDistTracker returns a distribution tracker with the given window.
func NewDistTracker(cfg Config) *DistTracker {
	c := cfg.withDefaults()
	return &DistTracker{cfg: c, byTag: make(map[string]map[string]*window.Counter)}
}

// ObserveBatch records the co-tag distribution contributions of a run of
// documents, in order. The sweep trigger is checked after every document,
// so the result does not depend on how a stream is cut into batches.
func (dt *DistTracker) ObserveBatch(docs []BatchDoc) {
	for _, d := range docs {
		if d.Time.After(dt.now) {
			dt.now = d.Time
		}
		uniq := dedupTags(d.Tags)
		for _, a := range uniq {
			for _, b := range uniq {
				if a == b {
					continue
				}
				m, ok := dt.byTag[a]
				if !ok {
					m = make(map[string]*window.Counter)
					dt.byTag[a] = m
				}
				c, ok := m[b]
				if !ok {
					c = window.NewCounter(dt.cfg.Buckets, dt.cfg.Resolution)
					m[b] = c
					dt.counters++
				}
				c.Inc(d.Time)
			}
		}
		dt.sinceGC++
		if dt.sinceGC >= dt.cfg.SweepEvery || dt.counters > dt.cfg.MaxPairs {
			dt.sweep()
		}
	}
}

// distKey addresses one (tag, co-tag) counter for eviction.
type distKey struct{ tag, co string }

// distKeyLess orders (tag, co) pairs lexicographically — the eviction
// tie-break for distribution counters.
func distKeyLess(a, b distKey) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.co < b.co
}

// sweep drops emptied counters and, if still over the MaxPairs budget,
// evicts the smallest-count (tag, co-tag) entries first, ties broken by
// (tag, co) order for determinism.
func (dt *DistTracker) sweep() {
	dt.sinceGC = 0
	//enblogue:unordered per-key advance-and-delete of emptied counters; each counter is touched independently, deletions commute
	for tag, m := range dt.byTag {
		//enblogue:unordered per-key advance-and-delete; see outer loop
		for co, c := range m {
			c.Observe(dt.now)
			if c.Value() == 0 {
				delete(m, co)
				dt.counters--
			}
		}
		if len(m) == 0 {
			delete(dt.byTag, tag)
		}
	}
	if dt.counters <= dt.cfg.MaxPairs {
		return
	}
	all := make([]counted[distKey], 0, dt.counters)
	//enblogue:unordered collects every counter; evictSmallest ranks by (count, key), a strict total order independent of input order
	for tag, m := range dt.byTag {
		//enblogue:unordered collect for deterministic global ranking; see outer loop
		for co, c := range m {
			all = append(all, counted[distKey]{distKey{tag, co}, c.Value()})
		}
	}
	evictSmallest(all, evictTarget(dt.cfg.MaxPairs), distKeyLess, func(k distKey, _ float64) {
		delete(dt.byTag[k.tag], k.co)
		if len(dt.byTag[k.tag]) == 0 {
			delete(dt.byTag, k.tag)
		}
		dt.counters--
	})
}

// Distribution returns tag's windowed co-tag counts as a map. The map is
// freshly allocated.
func (dt *DistTracker) Distribution(tag string) map[string]float64 {
	m, ok := dt.byTag[tag]
	if !ok {
		return nil
	}
	out := make(map[string]float64, len(m))
	//enblogue:unordered map-to-map copy; inserting into the result map is commutative, and consumers iterate it over sorted support
	for co, c := range m {
		c.Observe(dt.now)
		if v := c.Value(); v > 0 {
			out[co] = v
		}
	}
	return out
}

// lenExcluding returns len(m) not counting key ex.
func lenExcluding(m map[string]float64, ex string) int {
	n := len(m)
	if _, ok := m[ex]; ok {
		n--
	}
	return n
}

// Snapshot returns every tag's windowed co-tag distribution, advanced to
// the tracker clock. Parallel evaluation workers take one snapshot per tick
// and compute similarities from it via SimilarityFrom, never touching the
// tracker (whose reads advance counters in place).
func (dt *DistTracker) Snapshot() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(dt.byTag))
	//enblogue:unordered map-to-map copy keyed by tag; per-tag distributions are independent, insertion order is immaterial
	for tag := range dt.byTag {
		out[tag] = dt.Distribution(tag)
	}
	return out
}

// SimilarityFrom returns 1 − JS distance between the co-tag distributions
// of tags a and b in a Snapshot: 1 for identical usage, 0 for disjoint.
// This is the bounded relative-entropy correlation the paper sketches for
// distribution-valued documents. The pair members themselves are excluded
// from both distributions: the comparison asks whether a and b keep the
// same *company*, and each is trivially its partner's company. Neither
// snapshot map is copied or mutated (snapshots are shared across
// evaluation workers).
//
// Two effectively empty distributions mean no usage evidence at all — e.g.
// both tags' co-tag counters were evicted under memory pressure — and
// score 0, not the 1.0 that "identical (empty) usage" would naively yield:
// a spurious perfect correlation would register as a large prediction
// error and fabricate an emergent topic.
func SimilarityFrom(dists map[string]map[string]float64, a, b string) float64 {
	da, db := dists[a], dists[b]
	if lenExcluding(da, b) == 0 && lenExcluding(db, a) == 0 {
		return 0
	}
	return 1 - jsDistance(da, db, b, a)
}
