package pairs

import (
	"time"

	"enblogue/internal/tier"
)

// PairCount is one tracked pair and its windowed co-occurrence count, as
// returned by ShardedTracker.AppendSnapshot. Slot is the pair's slot
// within its shard — stable for the pair's whole tracked lifetime — which
// the engine forwards to the shift detector as a state-cache hint.
type PairCount struct {
	Key   Key
	Count float64
	Slot  int32
}

// trackerShard owns one partition of the pair space: an open-addressed
// key → slot table into the shard's expiry wheel, which holds every pair's
// windowed total. The window clock is tracker-global (nowNano), not per
// shard: every shard's wheel advances when it moves, so quiet shards expire
// their counts at the same times the serial Tracker would.
type trackerShard struct {
	table slotTable
	wheel wheel
	// keys is the reverse index: keys[slot] names the pair occupying that
	// slot, zero Key for free slots (a valid pair key is never zero —
	// interned IDs are biased by +1 before packing). Snapshots walk it in
	// slot order, turning the per-tick scan into sequential reads of the
	// totals instead of a map iteration; slot order is insertion-stable
	// across ticks, which also keeps downstream detector-state access
	// sequential.
	keys []Key
	// prefix caches each slot's Key.renderPrefix for the over-budget
	// sweep, so a pair consults the interner once in its tracked lifetime
	// rather than once per sweep. It stays nil until the first over-budget
	// sweep — a tracker that never evicts never pays for it — and zero
	// marks a slot whose prefix is not yet computed (drop resets it; a
	// real prefix is zero only when a tag starts with eight NUL bytes, and
	// is then merely recomputed).
	prefix []uint64
	// approx maps pairs whose counters were seeded from a tail-tier sketch
	// estimate at promotion (upper bounds, not exact counts) to the seeded
	// amount. The sweep subtracts the seed when such a pair is re-evicted:
	// the seed's mass never left the Count-Min sketch, so re-demoting it
	// would compound the estimate on every promote→evict cycle. Nil until
	// the first promotion; entries are cleared when the pair is dropped.
	approx map[Key]float64
	// evicted counts lifetime over-budget evictions from this shard;
	// demoted counts those absorbed by the tail tier (equal to evicted
	// while the tier is enabled, zero when disabled).
	evicted int64
	demoted int64
}

// ShardedTracker is the sharded counterpart of Tracker: the pair space is
// partitioned by hash(Key) % Shards so that evaluation can snapshot and
// score the shards in parallel. ObserveIDs — the ingest routine —
// applies each candidate pair of a run of documents to its shard, in
// document order.
//
// It is a single-owner structure: callers serialise every method, readers
// such as ActivePairs and TailStats included (the engine calls them all
// under its own lock), except that AppendSnapshot may run concurrently on
// distinct shards. AppendSnapshot drops the shard's emptied pairs, so it
// writes shard-local state only: every tracker-wide count (ActivePairs,
// TailStats' ApproxSeededPairs) is summed over the shards when read.
//
// Pairs are maintained where their counts are read. The tick's snapshot
// drops every pair whose window has emptied, so a pair is scored at a tick
// iff its window is non-empty then; between ticks an emptied pair stays
// tracked (ActivePairs counts it) until that snapshot or an over-budget
// sweep. No rule counts documents. Semantics are shard-count independent
// for a sequentially observed stream: the over-budget sweep fires on the
// same tracked-pair total as the serial Tracker's, and eviction ranks all
// pairs globally by (count, key) before deleting — so a ShardedTracker with
// 1 shard and one with N shards hold exactly the same pairs with the same
// counts at every point. This is what lets the sharded engine reproduce
// the serial engine's rankings bit-identically.
type ShardedTracker struct {
	cfg     Config
	shards  []*trackerShard
	nowNano int64 // max observed event time, unix nanos

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
	// promotions counts lifetime tail→exact promotions.
	promotions int64
	// onEvict, when set via SetOnEvict, observes every over-budget
	// eviction with the victim's windowed count — the test seam for
	// cross-validating tail estimates against exact ground truth. Called
	// from inside the sweep; it must not call back into the tracker.
	onEvict func(Key, float64)

	// scratch is the ingest working set, sweepAll the sweep's ranking
	// buffer, cands and ranked PromoteTail's candidates and their ranking,
	// all reused across calls so the steady state allocates nothing.
	scratch  batchScratch
	sweepAll []rankedPair
	cands    []tier.Candidate
	ranked   []rankedPair
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
		shards[i] = &trackerShard{wheel: newWheel(c.Buckets)}
	}
	tr := &ShardedTracker{cfg: c, shards: shards}
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
// set before the first ObserveIDs.
func (tr *ShardedTracker) SetOnEvict(fn func(Key, float64)) { tr.onEvict = fn }

// Shards returns the number of shards.
func (tr *ShardedTracker) Shards() int { return len(tr.shards) }

// upsert returns pair k's slot in sh, allocating it on first sight.
//
//enblogue:hotpath
func (sh *trackerShard) upsert(k Key) int32 {
	p, ok := sh.table.ref(k.packed)
	if !ok {
		slot := sh.wheel.alloc()
		*p = slot
		for int(slot) >= len(sh.keys) {
			sh.keys = append(sh.keys, Key{})
		}
		sh.keys[slot] = k
	}
	return *p
}

// drop removes pair k's slot from sh and returns the sketch-seeded portion
// of its counter (zero for pairs never promoted). It writes only sh, so
// AppendSnapshot may drop on distinct shards concurrently.
func (sh *trackerShard) drop(k Key, slot int32) float64 {
	sh.table.del(k.packed)
	seed := sh.approx[k]
	delete(sh.approx, k)
	sh.keys[slot] = Key{}
	if int(slot) < len(sh.prefix) {
		sh.prefix[slot] = 0
	}
	sh.wheel.release(slot)
	return seed
}

// sweep runs when the tracker is over MaxPairs: it drops the pairs whose
// windows have emptied and, if still over budget, evicts the pairs with the
// smallest windowed counts, ties broken by key, ranked globally across all
// shards, demoting each victim into its shard's tail when the tier is
// enabled. One slot-ordered walk per shard does the dropping and the
// collecting; selectSmallest then ranks only the victims, in the order the
// serial Tracker's sort would. Last, each wheel purges its victims'
// entries, freeing their slots for reuse.
func (tr *ShardedTracker) sweep() {
	if tr.nowNano == 0 {
		return
	}
	all := tr.sweepAll[:0]
	for s, sh := range tr.shards {
		for len(sh.prefix) < len(sh.keys) {
			sh.prefix = append(sh.prefix, 0)
		}
		for slot, k := range sh.keys {
			if k == (Key{}) {
				continue
			}
			v := sh.wheel.count(int32(slot))
			if v == 0 {
				sh.drop(k, int32(slot))
			} else {
				p := sh.prefix[slot]
				if p == 0 {
					p = k.renderPrefix()
					sh.prefix[slot] = p
				}
				all = append(all, rankedPair{count: v, prefix: p, key: k, slot: int32(slot), shard: int32(s)})
			}
		}
	}
	tr.sweepAll = all
	if len(all) <= tr.cfg.MaxPairs {
		return
	}
	victims := len(all) - evictTarget(tr.cfg.MaxPairs)
	selectSmallest(all, victims)
	for _, e := range all[:victims] {
		sh := tr.shards[e.shard]
		seed := sh.drop(e.key, e.slot)
		sh.evicted++
		// Victims arrive smallest-first, so the last one defines the
		// admission floor: the count a tail pair's estimate must beat to
		// earn its way back into the exact tier.
		tr.floor = e.count
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
			amt := e.count
			if seed > 0 {
				if amt = amt - seed; amt < 1 {
					amt = 1
				}
			}
			tr.tails[e.shard].Demote(tr.nowNano, e.key.packed, uint64(amt))
			sh.demoted++
		}
		if tr.onEvict != nil {
			tr.onEvict(e.key, e.count)
		}
	}
	for _, sh := range tr.shards {
		sh.wheel.purge()
	}
}

// PromoteTail re-admits every tail pair whose windowed estimate strictly
// exceeds the admission floor, seeding its exact counter with the estimate
// (an upper bound — see internal/tier) at the tracker clock's bucket and
// flagging it approximate. Promotions are capped at the tracker's current
// headroom under MaxPairs, best estimates first (ties broken by rendered
// key order, like eviction), so a promotion burst cannot blow the memory
// budget and then thrash the next sweep. Promoted keys leave the tail
// summaries; their sketch mass decays on the generation schedule. Returns
// the number of pairs promoted. The engine calls this at tick time, before
// evaluation snapshots, so promoted pairs are scored in the same tick.
func (tr *ShardedTracker) PromoteTail(t time.Time) int {
	if tr.tails == nil {
		return 0
	}
	headroom := tr.cfg.MaxPairs - tr.ActivePairs()
	if headroom <= 0 {
		return 0
	}
	if tr.nowNano == 0 {
		// No document observed yet: the tail is necessarily empty.
		return 0
	}
	cands := tr.cands[:0]
	for _, tl := range tr.tails {
		cands = tl.AppendCandidates(tr.nowNano, uint64(tr.floor), cands)
	}
	tr.cands = cands
	if len(cands) == 0 {
		return 0
	}
	// Rank by (−estimate, key) through the sweep's kernel: negating the
	// estimate turns "best first" into "smallest first", and estimates are
	// far below 2^53, so the float conversion is exact.
	ranked := tr.ranked[:0]
	for _, c := range cands {
		k := Key{packed: c.Key}
		ranked = append(ranked, rankedPair{count: -float64(c.Est), prefix: k.renderPrefix(), key: k, shard: int32(k.Shard(len(tr.shards)))})
	}
	tr.ranked = ranked
	n := min(headroom, len(ranked))
	selectSmallest(ranked, n)
	for _, r := range ranked[:n] {
		k, sh := r.key, tr.shards[r.shard]
		est := -r.count
		slot := sh.upsert(k)
		// If the pair re-emerged on its own since demotion, the counter
		// holds only post-eviction events; the estimate covers the
		// pre-eviction mass, so adding keeps the seeded total an upper
		// bound on the true windowed count.
		sh.wheel.add(slot, sh.wheel.head, uint64(est))
		if sh.approx == nil {
			sh.approx = make(map[Key]float64)
		}
		// Accumulate, not assign: a pair promoted twice without an eviction
		// in between (impossible today — Remove gates re-candidacy on a
		// fresh demotion — but cheap to keep correct) carries both seeds.
		sh.approx[k] += est
		tr.tails[r.shard].Remove(k.packed)
	}
	tr.promotions += int64(n)
	return n
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

// TailStats returns the current tier statistics.
func (tr *ShardedTracker) TailStats() TailStats {
	ts := TailStats{
		EvictedByShard: make([]int64, len(tr.shards)),
		DemotedByShard: make([]int64, len(tr.shards)),
	}
	for i, sh := range tr.shards {
		ts.ApproxSeededPairs += len(sh.approx)
		ts.EvictedByShard[i] = sh.evicted
		ts.DemotedByShard[i] = sh.demoted
	}
	if tr.tails == nil {
		return ts
	}
	ts.Enabled = true
	ts.Promotions = tr.promotions
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
	slot, ok := sh.table.get(k.packed)
	if !ok {
		return 0
	}
	return sh.wheel.count(slot)
}

// ActivePairs returns the number of pairs currently tracked across shards,
// pairs emptied since the last snapshot included.
func (tr *ShardedTracker) ActivePairs() int {
	n := 0
	for _, sh := range tr.shards {
		n += sh.table.n
	}
	return n
}

// Keys returns all tracked pair keys, shard by shard in slot order.
func (tr *ShardedTracker) Keys() []Key {
	out := make([]Key, 0, tr.ActivePairs())
	for _, sh := range tr.shards {
		for _, k := range sh.keys {
			if k != (Key{}) {
				out = append(out, k)
			}
		}
	}
	return out
}

// AppendSnapshot appends shard i's pairs with a non-empty window — counts
// at the tracker clock, never 0 — to buf and returns it, and drops every
// pair of the shard whose window has emptied: this walk is where the
// tracker forgets idle pairs, so whether a pair is scored at a tick depends
// on event time alone. It only reads totals: expiry ran when the clock
// moved. Evaluation workers pass a per-shard buffer reused across ticks
// (buf[:0]) so the steady-state tick allocates nothing for snapshots. Calls
// on distinct shards may run concurrently (one evaluation worker per
// shard): a call writes only its own shard.
//
// Pairs are emitted in slot order (via the reverse key index), not map
// order: the walk reads the totals sequentially, and the order is
// insertion-stable across ticks so downstream per-pair state allocated in
// first-snapshot order is also visited sequentially. Snapshot order cannot
// affect rankings — per-pair evaluation is independent, and every
// downstream selection (top-k heaps, final sorts) uses a strict total
// order, so any input order yields the same ranking.
func (tr *ShardedTracker) AppendSnapshot(i int, buf []PairCount) []PairCount {
	sh := tr.shards[i]
	if cap(buf)-len(buf) < sh.table.n {
		grown := make([]PairCount, len(buf), len(buf)+sh.table.n)
		copy(grown, buf)
		buf = grown
	}
	for slot, k := range sh.keys {
		if k == (Key{}) {
			continue
		}
		c := sh.wheel.count(int32(slot))
		if c == 0 {
			sh.drop(k, int32(slot))
			continue
		}
		buf = append(buf, PairCount{Key: k, Count: c, Slot: int32(slot)})
	}
	return buf
}
