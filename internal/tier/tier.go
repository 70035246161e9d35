// Package tier implements the cold tier of the engine's two-tier pair
// memory model (DESIGN.md §12). The hot tier is the exact, arena-backed
// pair tracker in internal/pairs; it stays bounded by MaxPairs eviction.
// Before this tier existed, eviction silently forgot the long tail: an
// evicted pair that re-emerged restarted from zero. Now every evicted pair
// is demoted here, into
//
//   - a windowed Count-Min sketch keyed on the packed pairs.Key uint64 (no
//     string is formed or hashed on the demotion path), whose estimates are
//     upper bounds within an εN additive error, and
//   - a weighted Space-Saving summary of the heaviest tail pairs — the
//     promotion candidate set, O(TopK) space no matter how many distinct
//     pairs pass through.
//
// Both structures age in two generations keyed by event time (generation =
// eventNanos / span, span = the co-occurrence window span), so tail mass
// decays on the same schedule as the exact tier's windowed counters instead
// of accumulating forever.
//
// At tick time the pair tracker asks each shard's Tail for candidates whose
// estimated count crosses the current admission floor (the windowed count
// of the largest pair the last over-budget sweep evicted) and re-inserts
// them into the exact tier, seeding their counters from the sketch estimate
// and flagging them approximate. Estimates never underestimate — Count-Min
// rows only ever add mass, and when a promoted pair is evicted again the
// tracker demotes only the excess its counter earned beyond the seed (the
// seed's mass never left the sketch, so re-adding it would compound the
// estimate on every promote→evict cycle) — so a seeded counter is an upper
// bound on the pair's true windowed co-occurrence, up to the generation
// granularity of decay, and admission errs toward keeping potentially
// emerging pairs.
//
// Each tracker shard owns one Tail guarded by its own mutex under the
// lockdiscipline class `tier` (order 45). The tracker demotes and promotes
// under the engine lock (engine, 10), so tier nests inside engine; the
// mutex exists for Stats, which /v1 stats handlers call from their own
// goroutines while the owner demotes.
package tier

import (
	"fmt"
	"sync"

	"enblogue/internal/sketch"
)

// Config sizes one Tail. The zero value of Epsilon/Delta/TopK selects the
// defaults below; Span must be positive.
type Config struct {
	// Epsilon is the Count-Min additive-error fraction: estimates exceed
	// true windowed tail mass by at most Epsilon × N with probability
	// 1−Delta, where N is the live windowed mass. Default 0.01.
	Epsilon float64
	// Delta is the Count-Min failure probability. Default 0.01.
	Delta float64
	// TopK is the Space-Saving summary capacity — the maximum number of
	// promotion candidates remembered per shard. Default 512.
	TopK int
	// Span is the generation span in nanoseconds; pairs demoted more than
	// two spans ago have fully decayed. The pair tracker passes its window
	// span so tail decay matches exact-counter decay.
	Span int64
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		c.Epsilon = 0.01
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		c.Delta = 0.01
	}
	if c.TopK < 1 {
		c.TopK = 512
	}
	return c
}

// Candidate is a tail pair whose estimate crossed the admission floor,
// carrying the upper-bound windowed estimate the exact tier seeds from.
type Candidate struct {
	Key uint64 // packed pairs.Key
	Est uint64
}

// Stats is a point-in-time view of one Tail.
type Stats struct {
	Pairs   int     // distinct pairs in the live heavy-hitter summaries
	Mass    uint64  // live windowed sketch mass — the N in the εN bound
	Epsilon float64 // configured additive-error fraction
	Demoted uint64  // lifetime demotions absorbed
}

// Tail is one shard's cold tier. All methods are safe for concurrent use;
// the internal mutex belongs to the lockdiscipline class `tier` (order 45).
type Tail struct {
	//enblogue:lock tier 45
	mu   sync.Mutex
	span int64
	cm   *sketch.WindowedCountMin
	// cur and prev are the two summary generations, rotated in lockstep
	// with the sketch generations: candidates are drawn from both, so a
	// heavy tail pair stays promotable for at least one full span after its
	// last demotion.
	cur, prev *sketch.TopKU64
	gen       int64
	started   bool
	demoted   uint64
}

// New returns a Tail for the given configuration. It panics if cfg.Span is
// not positive — the pair tracker always knows its window span.
func New(cfg Config) *Tail {
	cfg = cfg.withDefaults()
	if cfg.Span <= 0 {
		panic(fmt.Sprintf("tier: generation span %d must be positive", cfg.Span))
	}
	return &Tail{
		span: cfg.Span,
		cm:   sketch.NewWindowedCountMinWithError(cfg.Epsilon, cfg.Delta),
		cur:  sketch.NewTopKU64(cfg.TopK),
		prev: sketch.NewTopKU64(cfg.TopK),
	}
}

// advanceLocked rotates the generations to the one containing nowNano.
// Backwards moves are ignored: a stale reader must not clear newer mass.
// Callers must hold t.mu.
//
//enblogue:requires tier
func (t *Tail) advanceLocked(nowNano int64) {
	gen := nowNano / t.span
	if t.started && gen <= t.gen {
		return
	}
	switch {
	case !t.started:
		// First demotion defines the epoch; nothing to age out.
	case gen == t.gen+1:
		t.cur, t.prev = t.prev, t.cur
		t.cur.Reset()
	default: // jumped ≥ 2 spans: everything has decayed
		t.cur.Reset()
		t.prev.Reset()
	}
	t.gen = gen
	t.started = true
	t.cm.Advance(gen)
}

// Demote absorbs one pair evicted from the exact tier at event time
// nowNano, carrying its windowed co-occurrence count. Zero-count demotions
// are ignored (nothing to remember).
//
//enblogue:acquires tier
//enblogue:hotpath
func (t *Tail) Demote(nowNano int64, key uint64, count uint64) {
	if count == 0 {
		return
	}
	t.mu.Lock()
	t.advanceLocked(nowNano)
	t.cm.AddU64(key, count)
	t.cur.Add(key, count)
	t.demoted++
	t.mu.Unlock()
}

// AppendCandidates appends every summary pair whose windowed estimate
// strictly exceeds floor, in deterministic slot order (callers wanting rank
// order sort the result). The estimate attached is the Count-Min one — the
// value the exact tier seeds from — not the summary's own count. Appending
// into a caller-owned buffer keeps the tick-time read allocation-free once
// the buffer has grown.
//
//enblogue:acquires tier
func (t *Tail) AppendCandidates(nowNano int64, floor uint64, buf []Candidate) []Candidate {
	t.mu.Lock()
	t.advanceLocked(nowNano)
	for i := 0; i < t.cur.Len(); i++ {
		e := t.cur.At(i)
		if est := t.cm.EstimateU64(e.Key); est > floor {
			buf = append(buf, Candidate{Key: e.Key, Est: est})
		}
	}
	for i := 0; i < t.prev.Len(); i++ {
		e := t.prev.At(i)
		if t.cur.Contains(e.Key) {
			continue
		}
		if est := t.cm.EstimateU64(e.Key); est > floor {
			buf = append(buf, Candidate{Key: e.Key, Est: est})
		}
	}
	t.mu.Unlock()
	return buf
}

// Remove drops key from the heavy-hitter summaries after promotion, so it
// cannot be promoted again until it is demoted again. Its Count-Min mass
// remains until it rotates out — estimates stay upper bounds.
//
//enblogue:acquires tier
func (t *Tail) Remove(key uint64) {
	t.mu.Lock()
	t.cur.Remove(key)
	t.prev.Remove(key)
	t.mu.Unlock()
}

// Stats returns a point-in-time view of the tail.
//
//enblogue:acquires tier
func (t *Tail) Stats() Stats {
	t.mu.Lock()
	pairs := t.cur.Len()
	for i := 0; i < t.prev.Len(); i++ {
		if !t.cur.Contains(t.prev.At(i).Key) {
			pairs++
		}
	}
	s := Stats{
		Pairs:   pairs,
		Mass:    t.cm.Mass(),
		Epsilon: t.cm.Epsilon(),
		Demoted: t.demoted,
	}
	t.mu.Unlock()
	return s
}
