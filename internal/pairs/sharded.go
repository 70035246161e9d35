package pairs

import (
	"sort"
	"sync/atomic"
	"time"

	"enblogue/internal/tier"
	"enblogue/internal/window"
)

// PairCount is one tracked pair and its windowed co-occurrence count, as
// returned by ShardedTracker.AppendSnapshot. Slot is the pair's arena slot
// within its shard — stable for the pair's whole tracked lifetime — which
// the engine forwards to the shift detector as a state-cache hint.
type PairCount struct {
	Key   Key
	Count float64
	Slot  int32
}

// trackerShard owns one partition of the pair space: an ID-keyed slot map
// into a slab-allocated counter arena (one backing slice of buckets per
// shard instead of one heap object per pair). The window clock is
// tracker-global (nowNano), not per shard, so quiet shards expire their
// counters at the same times the serial Tracker would.
type trackerShard struct {
	slots map[Key]int32
	arena *window.CounterArena
	// keys is the reverse index: keys[slot] names the pair occupying that
	// arena slot, zero Key for free slots (a valid pair key is never zero —
	// interned IDs are biased by +1 before packing). Snapshots walk it in
	// slot order, turning the per-tick scan into sequential slab reads
	// instead of a map iteration; slot order is insertion-stable across
	// ticks, which also keeps downstream detector-state access sequential.
	keys []Key
	// approx maps pairs whose counters were seeded from a tail-tier sketch
	// estimate at promotion (upper bounds, not exact counts) to the seeded
	// amount. The sweep subtracts the seed when such a pair is re-evicted:
	// the seed's mass never left the Count-Min sketch, so re-demoting it
	// would compound the estimate on every promote→evict cycle. Nil until
	// the first promotion; entries are cleared when the pair is dropped.
	approx map[Key]float64
	// evicted counts lifetime over-budget evictions from this shard;
	// demoted counts those absorbed by the tail tier (equal to evicted
	// while the tier is enabled, zero when disabled). Atomic: TailStats
	// reads them from any goroutine.
	evicted atomic.Int64
	demoted atomic.Int64
}

// ShardedTracker is the sharded counterpart of Tracker: the pair space is
// partitioned by hash(Key) % Shards so that evaluation can snapshot and
// score the shards in parallel. ObserveBatch — the only ingest routine —
// groups a run of documents' candidate pairs by shard and applies each
// shard's group in document order.
//
// It is a single-owner structure: callers serialise every method (the
// engine calls them all under its own lock), except that AppendSnapshot
// may run concurrently on distinct shards, and ActivePairs and TailStats
// are safe from any goroutine.
//
// Semantics are shard-count independent for a sequentially observed stream:
// sweeps trigger on the same global document counts as the serial Tracker,
// and over-budget eviction ranks all pairs globally by (count, key) before
// deleting — so a ShardedTracker with 1 shard and one with N shards hold
// exactly the same pairs with the same counts at every point. This is what
// lets the sharded engine reproduce the serial engine's rankings
// bit-identically.
type ShardedTracker struct {
	cfg     Config
	shards  []*trackerShard
	npairs  atomic.Int64 // total tracked pairs across shards; atomic for ActivePairs
	nowNano int64        // max observed event time, unix nanos
	sinceGC int64        // documents observed since the last sweep

	// tails is the cold tier, one Tail per shard (nil when disabled): the
	// sweep demotes every over-budget eviction victim into its shard's
	// tail, and PromoteTail re-admits tail pairs whose estimates cross the
	// admission floor.
	tails []*tier.Tail
	// floor is the admission floor: the windowed count of the largest pair
	// the last over-budget sweep evicted. A tail pair must beat it to be
	// promoted — i.e. its estimate must show it would have survived that
	// eviction.
	floor float64
	// promotions counts lifetime tail→exact promotions; approxSeeded counts
	// the tracked pairs whose counters are sketch-seeded (the entries of
	// every shard's approx map). Both atomic for TailStats.
	promotions   atomic.Int64
	approxSeeded atomic.Int64
	// onEvict, when set via SetOnEvict, observes every over-budget
	// eviction with the victim's windowed count — the test seam for
	// cross-validating tail estimates against exact ground truth. Called
	// from inside the sweep; it must not call back into the tracker.
	onEvict func(Key, float64)

	// scratch is ObserveBatch's working set and sweepAll the over-budget
	// sweep's ranking buffer, both reused across calls so the steady state
	// allocates nothing.
	scratch  batchScratch
	sweepAll []counted[Key]
}

// NewShardedTracker returns a sharded pair tracker. cfg.Shards <= 1 yields a
// single shard, which behaves exactly like the serial Tracker.
func NewShardedTracker(cfg Config) *ShardedTracker {
	c := cfg.withDefaults()
	n := c.Shards
	if n < 1 {
		n = 1
	}
	shards := make([]*trackerShard, n)
	for i := range shards {
		shards[i] = &trackerShard{
			slots: make(map[Key]int32),
			arena: window.NewCounterArena(c.Buckets, c.Resolution),
		}
	}
	tr := &ShardedTracker{cfg: c, shards: shards}
	tr.scratch.byShard = make([][]keyAt, n)
	if c.Tail != nil {
		tcfg := *c.Tail
		tcfg.Span = int64(c.Buckets) * int64(c.Resolution)
		tr.tails = make([]*tier.Tail, n)
		for i := range tr.tails {
			tr.tails[i] = tier.New(tcfg)
		}
	}
	return tr
}

// SetOnEvict installs the eviction observer; see the field doc. Must be
// set before the first ObserveBatch.
func (tr *ShardedTracker) SetOnEvict(fn func(Key, float64)) { tr.onEvict = fn }

// Shards returns the number of shards.
func (tr *ShardedTracker) Shards() int { return len(tr.shards) }

// now returns the tracker-global clock: the max event time observed so far.
func (tr *ShardedTracker) now() time.Time {
	if tr.nowNano == 0 {
		return time.Time{}
	}
	return time.Unix(0, tr.nowNano)
}

// upsert returns pair k's counter slot in sh, allocating it on first sight.
//
//enblogue:hotpath
func (tr *ShardedTracker) upsert(sh *trackerShard, k Key) int32 {
	slot, ok := sh.slots[k]
	if !ok {
		slot = sh.arena.Alloc()
		sh.slots[k] = slot
		for int(slot) >= len(sh.keys) {
			sh.keys = append(sh.keys, Key{})
		}
		sh.keys[slot] = k
		tr.npairs.Add(1)
	}
	return slot
}

// drop removes pair k's slot from sh and returns the sketch-seeded portion
// of its counter (zero for pairs never promoted).
func (tr *ShardedTracker) drop(sh *trackerShard, k Key, slot int32) float64 {
	delete(sh.slots, k)
	seed, ok := sh.approx[k]
	if ok {
		delete(sh.approx, k)
		tr.approxSeeded.Add(-1)
	}
	sh.keys[slot] = Key{}
	sh.arena.Release(slot)
	tr.npairs.Add(-1)
	return seed
}

// sweep advances every counter to the tracker clock, drops pairs whose
// windows have emptied, and — if the tracker is still over MaxPairs —
// evicts the pairs with the smallest windowed counts, ties broken by key,
// ranked globally across all shards, demoting each victim into its shard's
// tail when the tier is enabled.
//
//enblogue:acquires tier
func (tr *ShardedTracker) sweep() {
	tr.sinceGC = 0
	now := tr.now()
	if now.IsZero() {
		return
	}
	for _, sh := range tr.shards {
		for slot, k := range sh.keys {
			if k == (Key{}) {
				continue
			}
			if sh.arena.ValueAt(int32(slot), now) == 0 {
				tr.drop(sh, k, int32(slot))
			}
		}
	}
	if tr.npairs.Load() <= int64(tr.cfg.MaxPairs) {
		return
	}
	// Still over budget: rank all pairs globally and evict the smallest,
	// with the same ordering every tracker uses (evictSmallest).
	all := tr.sweepAll[:0]
	for _, sh := range tr.shards {
		//enblogue:unordered collects every pair; evictSmallest ranks by (count, key), a strict total order independent of input order
		for k, slot := range sh.slots {
			all = append(all, counted[Key]{k, sh.arena.Value(slot)})
		}
	}
	evictSmallest(all, evictTarget(tr.cfg.MaxPairs), keyLess, func(k Key, count float64) {
		s := k.Shard(len(tr.shards))
		sh := tr.shards[s]
		seed := tr.drop(sh, k, sh.slots[k])
		sh.evicted.Add(1)
		// Victims arrive smallest-first, so the last one defines the
		// admission floor: the count a tail pair's estimate must beat to
		// earn its way back into the exact tier.
		tr.floor = count
		if tr.tails != nil {
			// Victim order is the deterministic eviction order, so per-shard
			// summary contents are replay-identical too. A victim whose
			// counter was sketch-seeded demotes only its excess over the
			// seed — the seed's mass is still resident in the sketch, and
			// re-adding it would double the estimate on every promote→evict
			// cycle until inflated tail pairs crowd out genuinely heavy ones.
			// The floor of one event keeps the pair in the heavy-hitter
			// summary (and so promotable) even when nothing new was
			// observed; the overshoot stays on the safe, upper-bound side.
			amt := count
			if seed > 0 {
				if amt = amt - seed; amt < 1 {
					amt = 1
				}
			}
			tr.tails[s].Demote(tr.nowNano, k.packed, uint64(amt))
			sh.demoted.Add(1)
		}
		if tr.onEvict != nil {
			tr.onEvict(k, count)
		}
	})
	tr.sweepAll = all
}

// PromoteTail re-admits every tail pair whose windowed estimate strictly
// exceeds the admission floor, seeding its exact counter with the estimate
// (an upper bound — see internal/tier) at the bucket containing t and
// flagging it approximate. Promotions are capped at the tracker's current
// headroom under MaxPairs, best estimates first (ties broken by rendered
// key order, like eviction), so a promotion burst cannot blow the memory
// budget and then thrash the next sweep. Promoted keys leave the tail
// summaries; their sketch mass decays on the generation schedule. Returns
// the number of pairs promoted. The engine calls this at tick time, before
// evaluation snapshots, so promoted pairs are scored in the same tick.
//
//enblogue:acquires tier
func (tr *ShardedTracker) PromoteTail(t time.Time) int {
	if tr.tails == nil {
		return 0
	}
	headroom := tr.cfg.MaxPairs - int(tr.npairs.Load())
	if headroom <= 0 {
		return 0
	}
	if tr.nowNano == 0 {
		// No document observed yet: the tail is necessarily empty.
		return 0
	}
	var cands []tier.Candidate
	for _, tl := range tr.tails {
		cands = tl.AppendCandidates(tr.nowNano, uint64(tr.floor), cands)
	}
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Est != cands[j].Est {
			return cands[i].Est > cands[j].Est
		}
		return Key{packed: cands[i].Key}.Less(Key{packed: cands[j].Key})
	})
	if len(cands) > headroom {
		cands = cands[:headroom]
	}
	abs := tr.nowNano / int64(tr.cfg.Resolution)
	for _, c := range cands {
		k := Key{packed: c.Key}
		s := k.Shard(len(tr.shards))
		sh := tr.shards[s]
		slot := tr.upsert(sh, k)
		// If the pair re-emerged on its own since demotion, the counter
		// holds only post-eviction events; the estimate covers the
		// pre-eviction mass, so adding keeps the seeded total an upper
		// bound on the true windowed count.
		sh.arena.AddAbs(slot, abs, float64(c.Est))
		if sh.approx == nil {
			sh.approx = make(map[Key]float64)
		}
		if _, seeded := sh.approx[k]; !seeded {
			tr.approxSeeded.Add(1)
		}
		// Accumulate, not assign: a pair promoted twice without an eviction
		// in between (impossible today — Remove gates re-candidacy on a
		// fresh demotion — but cheap to keep correct) carries both seeds.
		sh.approx[k] += float64(c.Est)
		tr.tails[s].Remove(c.Key)
	}
	tr.promotions.Add(int64(len(cands)))
	return len(cands)
}

// TailStats is a point-in-time view of the cold tier and the eviction
// counters feeding it, aggregated across shards. The per-shard slices are
// always populated (eviction counting predates the tier and works with it
// disabled); the tier fields are zero when Enabled is false.
type TailStats struct {
	Enabled           bool
	TailPairs         int     // distinct pairs in the live tail summaries
	Epsilon           float64 // configured Count-Min error fraction
	ErrorBound        float64 // epsilon × live windowed tail mass
	Promotions        int64   // lifetime tail→exact promotions
	ApproxSeededPairs int     // tracked pairs whose counters are sketch-seeded
	EvictedByShard    []int64 // lifetime over-budget evictions per shard
	DemotedByShard    []int64 // of those, absorbed by the tail, per shard
}

// TailStats returns the current tier statistics. Safe for concurrent use:
// it reads only atomic counters and the tails, which lock themselves.
//
//enblogue:acquires tier
func (tr *ShardedTracker) TailStats() TailStats {
	ts := TailStats{
		ApproxSeededPairs: int(tr.approxSeeded.Load()),
		EvictedByShard:    make([]int64, len(tr.shards)),
		DemotedByShard:    make([]int64, len(tr.shards)),
	}
	for i, sh := range tr.shards {
		ts.EvictedByShard[i] = sh.evicted.Load()
		ts.DemotedByShard[i] = sh.demoted.Load()
	}
	if tr.tails == nil {
		return ts
	}
	ts.Enabled = true
	ts.Promotions = tr.promotions.Load()
	var mass uint64
	for _, tl := range tr.tails {
		s := tl.Stats()
		ts.TailPairs += s.Pairs
		mass += s.Mass
		ts.Epsilon = s.Epsilon
	}
	ts.ErrorBound = ts.Epsilon * float64(mass)
	return ts
}

// Cooccurrence returns the number of windowed documents carrying both tags
// of the pair.
func (tr *ShardedTracker) Cooccurrence(k Key) float64 {
	sh := tr.shards[k.Shard(len(tr.shards))]
	slot, ok := sh.slots[k]
	if !ok {
		return 0
	}
	return sh.arena.ValueAt(slot, tr.now())
}

// ActivePairs returns the number of pairs currently tracked across shards.
// Safe for concurrent use.
func (tr *ShardedTracker) ActivePairs() int { return int(tr.npairs.Load()) }

// Keys returns all tracked pair keys across shards in unspecified order.
func (tr *ShardedTracker) Keys() []Key {
	out := make([]Key, 0, tr.npairs.Load())
	for _, sh := range tr.shards {
		//enblogue:unordered documented unspecified order; ranking consumers sort or select with a strict total order
		for k := range sh.slots {
			out = append(out, k)
		}
	}
	return out
}

// AppendSnapshot appends shard i's pairs — counters advanced to the
// tracker clock — to buf and returns it. Evaluation workers pass a
// per-shard buffer reused across ticks (buf[:0]) so the steady-state tick
// allocates nothing for snapshots. Calls on distinct shards may run
// concurrently (one evaluation worker per shard).
//
// Pairs are emitted in arena slot order (via the reverse key index), not
// map order: the walk reads the counter slabs sequentially, and the order
// is insertion-stable across ticks so downstream per-pair state allocated
// in first-snapshot order is also visited sequentially. Snapshot order
// cannot affect rankings — per-pair evaluation is independent, and every
// downstream selection (top-k heaps, final sorts) uses a strict total
// order, so any input order yields the same ranking.
func (tr *ShardedTracker) AppendSnapshot(i int, buf []PairCount) []PairCount {
	sh := tr.shards[i]
	now := tr.now()
	if cap(buf)-len(buf) < len(sh.slots) {
		grown := make([]PairCount, len(buf), len(buf)+len(sh.slots))
		copy(grown, buf)
		buf = grown
	}
	if now.IsZero() {
		for slot, k := range sh.keys {
			if k == (Key{}) {
				continue
			}
			buf = append(buf, PairCount{Key: k, Count: sh.arena.Value(int32(slot)), Slot: int32(slot)})
		}
		return buf
	}
	abs := sh.arena.BucketIndex(now) // one conversion for the whole walk
	for slot, k := range sh.keys {
		if k == (Key{}) {
			continue
		}
		buf = append(buf, PairCount{Key: k, Count: sh.arena.PeekAbs(int32(slot), abs), Slot: int32(slot)})
	}
	return buf
}
