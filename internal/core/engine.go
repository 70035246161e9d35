// Package core wires the paper's three stages — seed tag selection,
// correlation tracking, and shift detection — into the enBlogue engine: a
// stream sink that consumes (timestamp, docId, tags, entities) tuples and
// periodically emits ranked emergent topics.
//
// The engine is event-time driven: evaluation ticks fire as the stream's
// timestamps pass tick boundaries, so archive replay ("time lapse on
// archived data") and live consumption behave identically.
//
// The engine core is sharded: the pair space is partitioned by hash(Key) %
// Shards, each shard owning its slice of the co-occurrence counters and of
// the detector state, all held by one lock-free machine (machine.go) that
// the Engine shell owns under a single mutex. ConsumeBatch — the one
// ingest path; Consume is a batch of one — applies each candidate pair of
// a run of documents to its shard, and every evaluation tick scores all
// shards in parallel — one worker per shard — before merging the per-shard
// top-k partial rankings deterministically. Rankings are bit-identical for
// every shard count on a sequentially consumed stream; see DESIGN.md for
// the argument. All exported Engine methods are safe for concurrent use.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enblogue/internal/entity"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
)

// Config parameterises an Engine. The zero value is usable: it yields the
// paper's defaults (Jaccard correlation, moving-average prediction, 2-day
// half-life, hourly ticks over a 48-hour window) with one engine shard per
// available CPU.
type Config struct {
	// WindowBuckets and WindowResolution define the sliding statistics
	// window for tags and pairs. Defaults: 48 buckets × 1 hour.
	WindowBuckets    int
	WindowResolution time.Duration

	// TickEvery is the evaluation period in event time. Zero means one
	// window resolution (hourly by default).
	TickEvery time.Duration

	// SeedCount is the size of the seed tag set ("we choose seed tags to
	// be popular tags"). Zero means 50.
	SeedCount int
	// SeedCriterion selects popularity (default), volatility, or hybrid.
	SeedCriterion tagstats.Criterion
	// SeedMinCount is the minimum windowed count for seed candidacy.
	// Zero means 3.
	SeedMinCount float64
	// SeedWarmupDocs bootstraps the first seed selection after this many
	// documents instead of waiting for the first tick. Zero means 100.
	SeedWarmupDocs int

	// MaxPairs caps tracked candidate pairs. Zero means 100000.
	MaxPairs int

	// TailSketch enables the tiered exact/sketch memory model: pairs
	// evicted over MaxPairs are demoted into a per-shard windowed Count-Min
	// sketch + heavy-hitter summary (internal/tier) instead of being
	// forgotten, and are promoted back — counters seeded from the
	// upper-bound estimate, flagged approximate — when their estimate
	// crosses the admission floor at tick time. Disabled by default;
	// rankings with it disabled are bit-identical to engines built before
	// the tier existed.
	TailSketch TailSketchConfig

	// Shards partitions the pair space for concurrent tracking and
	// parallel tick evaluation. Rankings do not depend on the shard count
	// when the stream is consumed sequentially, so this is purely a
	// throughput knob. Zero means one shard per available CPU; one yields
	// the serial reference engine.
	Shards int

	// Measure is the pair correlation measure. Default Jaccard.
	Measure pairs.Measure
	// DistributionMode switches correlation from set overlap to the
	// paper's information-theoretic alternative: documents represented "by
	// their entire tag sets", with pair correlation the Jensen–Shannon
	// similarity of the two tags' co-tag usage distributions. The
	// distributions come from a second pair tracker that counts every
	// pair, not only seed pairs, bounded by MaxPairs like the first.
	// Measure is ignored when set.
	DistributionMode bool
	// Predictor forecasts correlations; its error is the shift signal.
	// Default moving average.
	Predictor predict.Kind
	// PredictorConfig tunes the predictor.
	PredictorConfig predict.Config
	// HalfLife dampens past errors. Zero means shift.DefaultHalfLife (2d).
	HalfLife time.Duration
	// MinCooccurrence is the significance floor for scoring. Zero means 2.
	MinCooccurrence float64
	// UpOnly restricts shifts to correlation increases.
	UpOnly bool

	// TopK is the ranking length. Zero means 20.
	TopK int

	// UseEntities merges entity tags into the tag space ("combined with
	// regular tags to detect tag/entity mixtures as emergent topics").
	UseEntities bool
	// Tagger, when set together with UseEntities, annotates items that
	// arrive with text but no entities.
	Tagger *entity.Tagger

	// Durability enables snapshot + write-ahead-log persistence when its
	// Dir is set: prior state is recovered during New and every consumed
	// document is logged for crash recovery. See DurabilityConfig.
	Durability DurabilityConfig
}

// TailSketchConfig parameterises the cold tier under the exact pair
// tracker; see Config.TailSketch and internal/tier.
type TailSketchConfig struct {
	// Enabled turns the tier on. The remaining fields are ignored (and the
	// engine matches pre-tier behaviour exactly) when false.
	Enabled bool
	// Epsilon is the Count-Min additive-error fraction: tail estimates
	// exceed true windowed tail mass by at most Epsilon × N with
	// probability 1−Delta. Zero or out-of-range means 0.01.
	Epsilon float64
	// Delta is the Count-Min failure probability. Zero or out-of-range
	// means 0.01.
	Delta float64
	// TopK is the per-shard heavy-hitter summary capacity — the maximum
	// number of promotion candidates remembered per shard. Zero means 512.
	TopK int
}

// normalize is the single place nonsensical configurations are repaired:
// zero and negative settings fall back to the paper's defaults, and
// mutually wedging combinations are clamped (a pair budget smaller than the
// seed set could evict every candidate the moment it is tracked). Both New
// and Hub.Open build engines exclusively from normalized configs, so no
// construction path can yield an engine that cannot tick.
func (c Config) normalize() Config {
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = 48
	}
	if c.WindowResolution <= 0 {
		c.WindowResolution = time.Hour
	}
	if c.TickEvery <= 0 {
		c.TickEvery = c.WindowResolution
	}
	if c.SeedCount <= 0 {
		c.SeedCount = 50
	}
	if c.SeedMinCount <= 0 {
		c.SeedMinCount = 3
	}
	if c.SeedWarmupDocs <= 0 {
		c.SeedWarmupDocs = 100
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 100000
	}
	if c.MaxPairs < c.SeedCount {
		c.MaxPairs = c.SeedCount
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.HalfLife <= 0 {
		c.HalfLife = shift.DefaultHalfLife
	}
	if c.MinCooccurrence <= 0 {
		c.MinCooccurrence = 2
	}
	if c.TopK <= 0 {
		c.TopK = 20
	}
	if c.TailSketch.Enabled {
		if c.TailSketch.Epsilon <= 0 || c.TailSketch.Epsilon >= 1 {
			c.TailSketch.Epsilon = 0.01
		}
		if c.TailSketch.Delta <= 0 || c.TailSketch.Delta >= 1 {
			c.TailSketch.Delta = 0.01
		}
		if c.TailSketch.TopK < 1 {
			c.TailSketch.TopK = 512
		}
	} else {
		// A disabled tier carries no settings: the zero value is part of
		// the snapshot-fingerprint identity of every pre-tier engine.
		c.TailSketch = TailSketchConfig{}
	}
	return c
}

// Ranking is one evaluation tick's output: the top-k emergent topics.
type Ranking struct {
	At     time.Time
	Seeds  []string
	Topics []shift.Topic
}

// Clone returns a deep copy of the ranking: mutating the copy's Seeds or
// Topics cannot corrupt the engine's published state or any other
// subscriber's view.
func (r Ranking) Clone() Ranking {
	r.Seeds = append([]string(nil), r.Seeds...)
	r.Topics = append([]shift.Topic(nil), r.Topics...)
	return r
}

// IDs returns the ranked pair identifiers ("tag1+tag2"), best first.
func (r Ranking) IDs() []string {
	out := make([]string, len(r.Topics))
	for i, t := range r.Topics {
		out[i] = t.Pair.String()
	}
	return out
}

// Engine is the enBlogue core: it implements stream.Sink (and
// stream.Flusher) and can therefore terminate any query plan. All exported
// methods are safe for concurrent use — a live server can drive wall-clock
// Ticks and serve CurrentRanking while an ingest goroutine Consumes.
type Engine struct {
	cfg Config

	// mu is the machine's one owner: ingest (for a whole batch), forced
	// ticks, state export and restore, and every reader take it. Nothing
	// that holds mu waits on the dispatcher, so a SubSink may call readers.
	//
	//enblogue:lock engine 10
	mu sync.Mutex
	m  *machine // guarded by mu

	// last is the published ranking: stored under mu on every tick, loaded
	// lock-free by CurrentRanking. Nil before the first tick.
	last atomic.Pointer[Ranking]

	// wal and dur are the durability attachments (nil when Durability.Dir
	// is unset), assigned once during New — after recovery replay, so
	// replayed inputs are not re-logged — and immutable afterwards.
	wal WALRecorder
	dur Durability

	// broker fans every tick's ranking out to subscribers from a
	// dispatcher goroutine, outside all engine locks.
	broker *broker
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	c := cfg.normalize()
	e := &Engine{
		cfg:    c,
		m:      newMachine(c, forEachShard),
		broker: newBroker(),
	}
	// Recovery and WAL attachment happen last: the engine is fully built,
	// and e.wal is still nil while the hook replays prior inputs, so the
	// replay is not re-logged.
	e.attachDurability()
	return e
}

// Config returns the effective engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// DocsProcessed returns the number of consumed documents.
//
//enblogue:acquires engine
func (e *Engine) DocsProcessed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.docs
}

// ActivePairs returns the number of tracked candidate pairs.
//
//enblogue:acquires engine
func (e *Engine) ActivePairs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.pairsTr.ActivePairs()
}

// TailStats is the tiered-memory statistics view; see pairs.TailStats.
type TailStats = pairs.TailStats

// TailStats returns the cold-tier and eviction statistics. The per-shard
// eviction counters are live even with the tier disabled (Enabled false,
// tier fields zero).
//
//enblogue:acquires engine
func (e *Engine) TailStats() TailStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.pairsTr.TailStats()
}

// Shards returns the number of engine shards.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Seeds returns a copy of the current seed tag set, best first.
//
//enblogue:acquires engine
func (e *Engine) Seeds() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.m.seeds.Seeds()...)
}

// Subscribe registers a live notification feed: evaluation ticks are
// delivered to the returned subscription's channel from the engine's
// dispatcher goroutine, outside all engine locks, so consumers may call
// back into the engine freely (a SubSink only as its doc allows). Options attach a persona profile (the
// subscriber then receives its personalized re-ranking), a compiled
// predicate (SubTags/SubAllTags/SubMinScore/SubEmergenceOnly — the
// subscription then receives only ticks where its filtered view changed,
// found through the broker's inverted tag index rather than broadcast),
// trim to a per-subscriber top-k, and size the bounded buffer; slow
// consumers lose the oldest buffered notifications first (counted on the
// subscription), never stalling the engine or other subscribers.
// Cancelling ctx closes the subscription; a nil ctx subscribes until
// Close. Safe for concurrent use.
func (e *Engine) Subscribe(ctx context.Context, opts ...SubOption) *Subscription {
	return e.broker.subscribe(ctx, opts...)
}

// Subscribers returns the number of live broker subscriptions.
func (e *Engine) Subscribers() int { return e.broker.subscribers() }

// IndexedTags returns the number of distinct interned tags referenced by
// at least one live subscription predicate — the breadth of the broker's
// inverted dispatch index.
func (e *Engine) IndexedTags() int { return e.broker.indexedTags() }

// MatchedLastTick returns how many subscriptions were handed a
// notification on the most recently dispatched tick.
func (e *Engine) MatchedLastTick() int64 { return e.broker.matchedLastTick() }

// RankingsDropped returns the total number of ranking deliveries discarded
// across all subscriptions because consumers fell behind.
func (e *Engine) RankingsDropped() int64 { return e.broker.droppedTotal.Load() }

// PublishRanking hands a pre-built ranking straight to the broker and
// waits for dispatch to complete. It bypasses ingest and tick evaluation
// entirely — the ranking is NOT recorded as engine state (CurrentRanking
// is unaffected) — and exists for benchmarks and replay tooling that need
// to drive the subscription-dispatch path with synthetic ticks. Must not
// be called from a SubSink (the dispatcher cannot drain itself).
func (e *Engine) PublishRanking(r Ranking) {
	e.broker.publish(r)
	e.broker.wait()
}

// Close shuts the broker down: it waits for in-flight deliveries to drain,
// stops the dispatcher, and closes every subscription channel, then closes
// the durability attachments (a final WAL sync). Close runs no tick: call
// Flush first if the final partial tick should still be delivered. The WAL
// logs that tick too, so an engine recovered after Flush (or Tick) and
// Close equals the engine before Close. The engine itself remains usable
// for Consume/Tick/CurrentRanking, but no further rankings are delivered to
// subscribers. Idempotent; must not be called from a SubSink, which the
// dispatcher calls synchronously.
func (e *Engine) Close() {
	e.broker.close()
	if e.dur != nil {
		// Every ConsumeBatch that returned has committed its documents,
		// so the final WAL sync covers them. Close is idempotent on the
		// persistence side.
		e.dur.Close()
	}
}

// LastEventTime returns the newest event timestamp consumed so far (zero
// before the first document). Live servers use it to drive wall-clock Ticks
// at the stream's own clock.
//
//enblogue:acquires engine
func (e *Engine) LastEventTime() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.lastSeen
}

// Consume implements stream.Sink: it feeds one tuple through the engine as
// a ConsumeBatch of one, so there is a single ingest path. Safe for
// concurrent use; concurrent producers serialise on the bookkeeping lock for
// the whole document, pair observation included.
//
//enblogue:acquires engine
//enblogue:hotpath
func (e *Engine) Consume(it *stream.Item) {
	if it == nil {
		return
	}
	one := [1]*stream.Item{it}
	e.ConsumeBatch(one[:])
}

// ConsumeBatch is the engine's one ingest path: it feeds a run of items
// through the machine, which logs each document to the WAL and fires
// evaluation ticks as event time passes tick boundaries, and pays the
// bookkeeping lock once per batch. The WAL commits before each ranking
// the batch publishes and before ConsumeBatch returns. Rankings are
// invariant under how a stream is cut into batches (see machine.consume).
//
// Safe for concurrent use with every other engine method; callers serialise
// on the bookkeeping lock for the whole batch, pair observation included.
// Determinism is promised for a sequentially fed stream.
//
//enblogue:acquires engine
//enblogue:hotpath
func (e *Engine) ConsumeBatch(items []*stream.Item) {
	if len(items) == 0 {
		return
	}
	e.mu.Lock()
	e.m.consume(items, e.publish)
	if e.wal != nil {
		e.wal.Commit()
	}
	e.mu.Unlock()
}

// publish makes r the current ranking and hands it to the broker, which
// delivers it on the dispatcher goroutine, outside e.mu, so consumers may
// call back into the engine. It commits the WAL first, so every input the
// ranking follows from is logged before anyone can see it.
//
//enblogue:requires engine
func (e *Engine) publish(r Ranking) {
	if e.wal != nil {
		e.wal.Commit()
	}
	e.last.Store(&r)
	e.broker.publish(r)
}

// Enqueue is Consume. It is kept only for the frozen bench module, which
// still calls it; ROADMAP 2(e) moves that caller and deletes this shim.
func (e *Engine) Enqueue(it *stream.Item) { e.Consume(it) }

// IngestDropped always returns 0: nothing drops documents. It is kept only
// for the frozen bench module, which still reads it; ROADMAP 2(e) deletes it.
func (e *Engine) IngestDropped() int64 { return 0 }

// Flush implements stream.Flusher: it forces an evaluation tick at the
// last observed event time, through the same guard as Tick: a tick at or
// before the newest evaluation is skipped, since re-evaluating would only
// feed every pair's predictor a duplicate observation. A tick Flush runs
// is logged to the WAL like a Tick. Flush releases the engine lock and then
// blocks until every ranking published so far has been fully delivered:
// subscription channels fed and every SubSink returned. That is a happens-before edge: whatever a sink did with a tick
// (a server's published view, history and SSE frames) is visible once
// Flush returns.
//
//enblogue:acquires engine
func (e *Engine) Flush() {
	e.mu.Lock()
	e.tickLocked(e.m.lastSeen)
	e.mu.Unlock()
	e.broker.wait()
}

// Tick forces an evaluation at time t (used by callers driving their own
// tick schedule, e.g. benchmarks or the live server's wall-clock timer).
// Safe for concurrent use with Consume. A t at or before the newest
// evaluation already run is ignored (the current ranking is returned
// unchanged): a wall-clock ticker that loaded LastEventTime just before an
// event-driven tick fired must not rewind the published ranking or feed
// the predictors a duplicate observation. An accepted tick is logged to
// the WAL, so recovery replays it at the same stream position.
//
//enblogue:acquires engine
func (e *Engine) Tick(t time.Time) Ranking {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.tickLocked(t); ok {
		return r.Clone()
	}
	return e.CurrentRanking()
}

// tickLocked offers the machine a forced tick at t. When the machine's
// guard accepts it, the tick is logged to the WAL — after the documents
// consumed so far — and its ranking published.
//
//enblogue:requires engine
func (e *Engine) tickLocked(t time.Time) (Ranking, bool) {
	r, ok := e.m.tick(t)
	if !ok {
		return r, false
	}
	if e.wal != nil {
		e.wal.RecordTick(e.m.docs, t)
	}
	e.publish(r)
	return r, true
}

// forEachShard runs fn(0..n-1), returning when all complete. Work fans out
// over min(n, GOMAXPROCS) goroutines in strided shard order — spawning
// more workers than runnable processors only adds scheduling overhead —
// and runs inline when that bound is one. Shards share no mutable state,
// so the shard→worker assignment cannot affect results.
func forEachShard(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// CurrentRanking returns a defensive copy of the most recent ranking. It
// takes no lock, so it is safe from any goroutine, a SubSink included;
// mutating the returned slices cannot corrupt the engine's published state.
func (e *Engine) CurrentRanking() Ranking {
	r := e.last.Load()
	if r == nil {
		return Ranking{}
	}
	return r.Clone()
}
