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
// the detector state behind its own lock. ConsumeBatch — the one ingest
// path; Consume is a batch of one — groups a run of documents' candidate
// pairs by shard, and every evaluation tick scores all shards in parallel
// — one worker per shard — before merging the per-shard top-k partial
// rankings deterministically. Rankings are bit-identical for
// every shard count on a sequentially consumed stream; see DESIGN.md for
// the argument. All exported Engine methods are safe for concurrent use.
package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"enblogue/internal/entity"
	"enblogue/internal/ingest"
	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
	"enblogue/internal/tier"
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

	// IngestQueueSize bounds the per-engine ingest ring buffer used by
	// Enqueue (and everything layered on it: enblogue.Run, Hub tenants).
	// Zero means 8192.
	IngestQueueSize int
	// IngestMaxBatch caps the documents one queue drain hands to
	// ConsumeBatch. Zero means 512; values above IngestQueueSize are
	// clamped to it.
	IngestMaxBatch int
	// IngestFlushInterval bounds how long the drainer waits for a partial
	// batch to fill once at least one item is queued. Zero means 2ms.
	IngestFlushInterval time.Duration
	// IngestDropOldest switches queue backpressure from blocking producers
	// (the default, which preserves every document) to evicting the oldest
	// queued items, counted by IngestDropped and surfaced in /v1 stats.
	IngestDropOldest bool

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
	if c.IngestQueueSize <= 0 {
		c.IngestQueueSize = 8192
	}
	if c.IngestMaxBatch <= 0 {
		c.IngestMaxBatch = 512
	}
	if c.IngestMaxBatch > c.IngestQueueSize {
		c.IngestMaxBatch = c.IngestQueueSize
	}
	if c.IngestFlushInterval <= 0 {
		c.IngestFlushInterval = 2 * time.Millisecond
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

	tags    *tagstats.Tracker      // guarded by mu
	pairsTr *pairs.ShardedTracker  // guarded by mu; shard i snapshotted by tick worker i
	co      *pairs.ShardedTracker  // DistributionMode only: every pair, seed or not; guarded like pairsTr
	det     *shift.Sharded         // shard i touched only by tick worker i, under mu
	seeds   *tagstats.SeedSelector // internally locked

	docs atomic.Int64
	// lastSeenNano is the newest consumed event timestamp in unix nanos (0
	// before the first document). Written under mu, read lock-free so
	// LastEventTime is callable from anywhere.
	lastSeenNano atomic.Int64

	// wal and dur are the durability attachments (nil when Durability.Dir
	// is unset), assigned once during New — after recovery replay, so
	// replayed documents are not re-logged — and immutable afterwards.
	wal WALRecorder
	dur Durability

	// mu serialises ingest (event clock, tick boundaries, tag statistics,
	// the WAL record and the pair observation of every document),
	// evaluation ticks and state exports against each other, so an export
	// never sees a half-applied document.
	//
	//enblogue:lock engine 10
	mu       sync.Mutex
	nextTick time.Time
	lastTick time.Time // newest evaluation time, guards forced-Tick rewinds

	// tick holds the per-tick working set — snapshot, keep-set, and top-k
	// buffers per shard plus the ID-keyed tag-count index — reused across
	// ticks so a steady-state evaluation pass allocates almost nothing.
	// Only tickLocked touches it, under mu.
	tick tickScratch

	// batchDocs is ConsumeBatch's pending-document buffer, reused across
	// calls. Only ConsumeBatch touches it, under mu.
	batchDocs []pairs.BatchDoc

	// ingest is the optional ring-buffer queue in front of ConsumeBatch,
	// started lazily by the first Enqueue. ingestDone closes when the
	// drainer goroutine exits.
	ingestOnce sync.Once
	ingest     atomic.Pointer[ingest.Queue]
	ingestDone chan struct{}

	// rankMu guards only the published ranking snapshot; it nests inside
	// engine (tickLocked publishes while holding mu).
	//
	//enblogue:lock rank 20
	rankMu sync.Mutex
	last   Ranking

	// broker fans every tick's ranking out to subscribers from a
	// dispatcher goroutine, outside all engine locks.
	broker *broker
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	c := cfg.normalize()
	var co *pairs.ShardedTracker
	if c.DistributionMode {
		co = pairs.NewShardedTracker(pairs.Config{
			Buckets:    c.WindowBuckets,
			Resolution: c.WindowResolution,
			MaxPairs:   c.MaxPairs,
			Shards:     c.Shards,
		})
	}
	tags := tagstats.NewTracker(tagstats.Config{
		Buckets:    c.WindowBuckets,
		Resolution: c.WindowResolution,
	})
	// The interning table is the engine's tag-ID domain; letting the tag
	// tracker cache resolved IDs per slot spares the evaluation tick one
	// string hash per active tag (see tagstats.SetTagIDResolver).
	tags.SetTagIDResolver(intern.Find)
	var tailCfg *tier.Config
	if c.TailSketch.Enabled {
		tailCfg = &tier.Config{
			Epsilon: c.TailSketch.Epsilon,
			Delta:   c.TailSketch.Delta,
			TopK:    c.TailSketch.TopK,
		}
	}
	e := &Engine{
		co:     co,
		cfg:    c,
		tick:   newTickScratch(c.Shards),
		broker: newBroker(),
		tags:   tags,
		pairsTr: pairs.NewShardedTracker(pairs.Config{
			Buckets:    c.WindowBuckets,
			Resolution: c.WindowResolution,
			MaxPairs:   c.MaxPairs,
			Shards:     c.Shards,
			Tail:       tailCfg,
		}),
		det: shift.NewSharded(c.Shards, shift.Config{
			Measure:         c.Measure,
			Predictor:       c.Predictor,
			PredictorConfig: c.PredictorConfig,
			HalfLife:        c.HalfLife,
			MinCooccurrence: c.MinCooccurrence,
			UpOnly:          c.UpOnly,
		}),
		seeds: tagstats.NewSeedSelector(c.SeedCount, c.SeedCriterion, c.SeedMinCount),
	}
	// Recovery and WAL attachment happen last: the engine is fully built,
	// and e.wal is still nil while the hook replays prior documents, so the
	// replay is not re-logged.
	e.attachDurability()
	return e
}

// Config returns the effective engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// DocsProcessed returns the number of consumed documents.
func (e *Engine) DocsProcessed() int64 { return e.docs.Load() }

// ActivePairs returns the number of tracked candidate pairs.
func (e *Engine) ActivePairs() int { return e.pairsTr.ActivePairs() }

// TailStats is the tiered-memory statistics view; see pairs.TailStats.
type TailStats = pairs.TailStats

// TailStats returns the cold-tier and eviction statistics. The per-shard
// eviction counters are live even with the tier disabled (Enabled false,
// tier fields zero).
func (e *Engine) TailStats() TailStats { return e.pairsTr.TailStats() }

// Shards returns the number of engine shards.
func (e *Engine) Shards() int { return e.pairsTr.Shards() }

// Seeds returns a copy of the current seed tag set, best first.
func (e *Engine) Seeds() []string {
	return append([]string(nil), e.seeds.Seeds()...)
}

// Subscribe registers a live notification feed: evaluation ticks are
// delivered to the returned subscription's channel from the engine's
// dispatcher goroutine, outside all engine locks, so consumers may call
// back into the engine freely. Options attach a persona profile (the
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

// Close shuts the ingest queue (if started) and the broker down: the queue
// stops accepting items, its drainer consumes whatever is already queued
// and exits, then the broker waits for in-flight deliveries to drain,
// stops the dispatcher, and closes every subscription channel. The engine
// itself remains usable for Consume/Tick/CurrentRanking, but no further
// rankings are delivered to subscribers. Call Flush first if the final
// partial tick should still be delivered. Idempotent; must not be called
// from a SubSink, which the dispatcher calls synchronously.
func (e *Engine) Close() {
	if q := e.ingest.Load(); q != nil {
		q.Close()
		<-e.ingestDone
	}
	e.broker.close()
	if e.dur != nil {
		// After ingest has drained, so the final WAL sync covers every
		// consumed document. Close is idempotent on the persistence side.
		e.dur.Close()
	}
}

// LastEventTime returns the newest event timestamp consumed so far (zero
// before the first document). Live servers use it to drive wall-clock Ticks
// at the stream's own clock. Lock-free.
func (e *Engine) LastEventTime() time.Time {
	n := e.lastSeenNano.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// itemTags resolves the tag set the engine operates on for an item.
func (e *Engine) itemTags(it *stream.Item) []string {
	if !e.cfg.UseEntities {
		return it.Tags
	}
	if e.cfg.Tagger != nil && len(it.Entities) == 0 && it.Text != "" {
		it = it.Clone()
		it.Entities = e.cfg.Tagger.Entities(it.Text)
	}
	return it.AllTags()
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
// through seed statistics and pair tracking, firing evaluation ticks as
// event time passes tick boundaries, and pays the bookkeeping lock once per
// batch.
//
// Rankings are invariant under how a stream is cut into batches, batches of
// one included. The batch is processed as segments delimited by the two
// events that change what a pair observation means: an evaluation tick
// (ticks snapshot pair counters) and a seed reselection (it changes the
// candidate predicate for documents observed after it). Documents
// accumulate as pending pair observations and are flushed through
// pairs.ShardedTracker.ObserveBatch before either event, under the
// predicate that was current when they arrived — so every document is
// observed under the same predicate, and every tick sees the same counters,
// wherever the batch boundaries fall. Within a segment the only
// per-document coupling is sweep timing, which ObserveBatch fixes per
// document count, not per call (see its doc comment).
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
	pend := e.batchDocs[:0]
	isSeed := e.seeds.Func()
	//enblogue:alloc-ok one closure per ConsumeBatch call, amortised over the whole batch; TestConsumeBatchSteadyStateAllocs pins the per-item count
	flush := func() {
		if len(pend) == 0 {
			return
		}
		e.pairsTr.ObserveBatch(pend, isSeed)
		if e.co != nil {
			e.co.ObserveBatch(pend, nil)
		}
		clear(pend) // release tag-slice references
		pend = pend[:0]
	}
	for _, it := range items {
		if it == nil {
			continue
		}
		t := it.Time
		tags := e.itemTags(it)

		if t.After(e.LastEventTime()) {
			e.lastSeenNano.Store(t.UnixNano())
		}
		// Fire any ticks the stream has moved past. A pathological time jump
		// (archive gap) fast-forwards rather than replaying empty ticks.
		if e.nextTick.IsZero() {
			e.nextTick = t.Add(e.cfg.TickEvery)
		}
		if gap := t.Sub(e.nextTick); gap > 100*e.cfg.TickEvery {
			flush()
			e.tickLocked(e.nextTick)
			e.nextTick = t.Add(e.cfg.TickEvery)
			isSeed = e.seeds.Func()
		}
		for !e.nextTick.After(t) {
			flush()
			e.tickLocked(e.nextTick)
			e.nextTick = e.nextTick.Add(e.cfg.TickEvery)
			isSeed = e.seeds.Func()
		}

		e.tags.Observe(t, tags)
		docs := e.docs.Add(1)
		if e.wal != nil {
			// The raw item is logged (pre-itemTags), so replay re-derives entity
			// tags identically instead of trusting a stale derivation.
			e.wal.RecordDoc(docs, it)
		}
		if len(e.seeds.Seeds()) == 0 && docs >= int64(e.cfg.SeedWarmupDocs) {
			// Bootstrap the seed set once enough documents have arrived, so
			// pair tracking starts before the first tick. Earlier documents
			// flush under the old predicate; this one is observed under the
			// new.
			flush()
			e.seeds.Reselect(e.tags)
			isSeed = e.seeds.Func()
		}
		pend = append(pend, pairs.BatchDoc{Time: t, Tags: tags})
	}
	flush()
	e.batchDocs = pend[:0]
	e.mu.Unlock()
}

// Enqueue appends one item to the engine's bounded ingest queue and returns
// without waiting for it to be consumed: producers never block on tick
// evaluation. The queue and its drainer goroutine start on first use; the
// drainer dequeues batches (up to IngestMaxBatch, waiting at most
// IngestFlushInterval to fill a partial batch) and feeds them through
// ConsumeBatch, so a single producer's stream yields rankings
// bit-identical to calling Consume directly. When the ring is full,
// Enqueue blocks until space frees — or, with IngestDropOldest, evicts the
// oldest queued items (counted by IngestDropped). Items enqueued after
// Close are discarded.
func (e *Engine) Enqueue(it *stream.Item) {
	if it == nil {
		return
	}
	e.ingestOnce.Do(e.startIngest)
	e.ingest.Load().Put(it)
}

// startIngest builds the ingest queue and starts its drainer goroutine.
func (e *Engine) startIngest() {
	q := ingest.New(ingest.Config{
		Size:          e.cfg.IngestQueueSize,
		MaxBatch:      e.cfg.IngestMaxBatch,
		FlushInterval: e.cfg.IngestFlushInterval,
		DropOldest:    e.cfg.IngestDropOldest,
	})
	e.ingestDone = make(chan struct{})
	e.ingest.Store(q)
	go func() {
		defer close(e.ingestDone)
		buf := make([]*stream.Item, 0, e.cfg.IngestMaxBatch)
		for {
			batch, ok := q.Drain(buf[:0])
			if len(batch) > 0 {
				e.ConsumeBatch(batch)
				clear(batch)
				q.Done()
			}
			if !ok {
				return
			}
			buf = batch
		}
	}()
}

// IngestDepth returns the number of items waiting in the ingest queue (0
// when no queue has been started).
func (e *Engine) IngestDepth() int {
	if q := e.ingest.Load(); q != nil {
		return q.Depth()
	}
	return 0
}

// IngestDropped returns the total documents evicted from the ingest queue
// under the IngestDropOldest policy.
func (e *Engine) IngestDropped() int64 {
	if q := e.ingest.Load(); q != nil {
		return q.Dropped()
	}
	return 0
}

// Flush implements stream.Flusher: it first waits for the ingest queue (if
// started) to drain — every item enqueued before Flush is consumed — then
// runs a final evaluation tick at the last observed event time — unless an
// evaluation at (or after) that time already ran, in which case
// re-evaluating would only feed every pair's predictor a duplicate
// observation. Flush then blocks until every ranking published so far has
// been fully delivered: subscription channels fed and every SubSink
// returned. That is a happens-before edge: whatever a sink did with a tick
// (a server's published view, history and SSE frames) is visible once
// Flush returns.
//
//enblogue:acquires engine
func (e *Engine) Flush() {
	if q := e.ingest.Load(); q != nil {
		q.WaitIdle()
	}
	e.mu.Lock()
	if at := e.LastEventTime(); !at.IsZero() && at.After(e.lastTick) {
		e.tickLocked(at)
	}
	e.mu.Unlock()
	e.broker.wait()
}

// Tick forces an evaluation at time t (used by callers driving their own
// tick schedule, e.g. benchmarks or the live server's wall-clock timer).
// Safe for concurrent use with Consume. A t at or before the newest
// evaluation already run is ignored (the current ranking is returned
// unchanged): a wall-clock ticker that loaded LastEventTime just before an
// event-driven tick fired must not rewind the published ranking or feed
// the predictors a duplicate observation.
//
//enblogue:acquires engine
func (e *Engine) Tick(t time.Time) Ranking {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !t.After(e.lastTick) {
		return e.CurrentRanking()
	}
	return e.tickLocked(t).Clone()
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

// topicCmp is the engine's deterministic ranking order as a three-way
// comparator: descending score, ties broken by the pair rendering (compared
// through Key.Less, which orders exactly like the rendered strings without
// building them).
func topicCmp(a, b *shift.Topic) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.Pair.Less(b.Pair) {
		return -1
	}
	if b.Pair.Less(a.Pair) {
		return 1
	}
	return 0
}

// sortTopics orders topics under topicCmp.
func sortTopics(topics []shift.Topic) {
	slices.SortFunc(topics, func(a, b shift.Topic) int {
		return topicCmp(&a, &b)
	})
}

// topicWorse reports whether a ranks strictly below b in the engine's
// deterministic ranking order: lower score, ties by pair rendering
// descending.
func topicWorse(a, b *shift.Topic) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return b.Pair.Less(a.Pair)
}

// topkPush folds t into a bounded min-heap of capacity k whose root is the
// worst kept topic under topicWorse. Kept topics live in buf while the heap
// itself is idx, an array of positions into buf: sift operations swap int32
// indexes instead of ~100-byte Topic structs, and comparisons read buf in
// place. Selecting the per-shard top-k this way replaces the former sort of
// every scored topic per shard per tick (O(p log p)) with O(p log k), and
// both slices are reused across ticks. The ranking order is a strict total
// order (scores tie-broken by distinct pair keys), so the kept set — later
// materialised in topicCmp order — is exactly the prefix a full
// sort-and-trim would keep.
func topkPush(buf []shift.Topic, idx []int32, k int, t *shift.Topic) ([]shift.Topic, []int32) {
	if len(idx) < k {
		buf = append(buf, *t)
		idx = append(idx, int32(len(buf)-1))
		for i := len(idx) - 1; i > 0; {
			p := (i - 1) / 2
			if !topicWorse(&buf[idx[i]], &buf[idx[p]]) {
				break
			}
			idx[i], idx[p] = idx[p], idx[i]
			i = p
		}
		return buf, idx
	}
	if !topicWorse(&buf[idx[0]], t) {
		return buf, idx // t is no better than the worst kept topic
	}
	buf[idx[0]] = *t
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(idx) && topicWorse(&buf[idx[l]], &buf[idx[m]]) {
			m = l
		}
		if r < len(idx) && topicWorse(&buf[idx[r]], &buf[idx[m]]) {
			m = r
		}
		if m == i {
			break
		}
		idx[i], idx[m] = idx[m], idx[i]
		i = m
	}
	return buf, idx
}

// tickScratch is the engine's reusable per-tick working set; see the
// Engine.tick field. Tag counts live in a dense epoch-tagged index keyed by
// interned tag ID: setCount stamps an entry with the current tick's epoch,
// count reads entries stamped this epoch and returns 0 for anything older —
// so "clearing" the index between ticks is one integer increment, and the
// per-pair lookup is two array reads instead of a string-keyed map probe.
type tickScratch struct {
	counts     []float64
	countEpoch []uint32
	epoch      uint32
	snaps      [][]pairs.PairCount
	// coSnaps and co are the distribution-mode working set: the co
	// tracker's per-shard snapshots and the co-tag index built from them.
	coSnaps [][]pairs.PairCount
	co      pairs.CoIndex
	tops    [][]shift.Topic
	// heapBuf and heapIdx are the per-shard topkPush working sets: kept
	// topics and the index heap over them.
	heapBuf [][]shift.Topic
	heapIdx [][]int32
	merged  []shift.Topic
	// topStats is the seed-selection buffer handed to tagstats.TopAppend,
	// reused across ticks like every other buffer here.
	topStats []tagstats.TagStat
}

func newTickScratch(shards int) tickScratch {
	return tickScratch{
		snaps:   make([][]pairs.PairCount, shards),
		coSnaps: make([][]pairs.PairCount, shards),
		tops:    make([][]shift.Topic, shards),
		heapBuf: make([][]shift.Topic, shards),
		heapIdx: make([][]int32, shards),
	}
}

// beginCounts starts a fresh count epoch.
func (ts *tickScratch) beginCounts() { ts.epoch++ }

// setCount records tag id's windowed count for the current epoch, growing
// the index as the interned vocabulary grows.
func (ts *tickScratch) setCount(id uint32, v float64) {
	if int(id) >= len(ts.counts) {
		grown := make([]float64, id+1)
		copy(grown, ts.counts)
		ts.counts = grown
		grownE := make([]uint32, id+1)
		copy(grownE, ts.countEpoch)
		ts.countEpoch = grownE
	}
	ts.counts[id] = v
	ts.countEpoch[id] = ts.epoch
}

// count returns tag id's windowed count for the current epoch, 0 if the
// tag was not recorded this tick.
func (ts *tickScratch) count(id uint32) float64 {
	if int(id) >= len(ts.countEpoch) || ts.countEpoch[id] != ts.epoch {
		return 0
	}
	return ts.counts[id]
}

// tickLocked reselects seeds, evaluates every candidate pair — all shards
// in parallel, one worker per shard — merges the per-shard top-k partial
// rankings, publishes the result, and sweeps dead detector state. The
// caller must hold e.mu.
//
// The merge is exact: a topic in the global top-k is necessarily in its own
// shard's top-k, so concatenating the per-shard prefixes and re-sorting
// with the same comparator yields the same ranking a single global sort
// would.
//
//enblogue:requires engine
//enblogue:acquires rank
func (e *Engine) tickLocked(t time.Time) Ranking {
	if t.After(e.lastTick) {
		e.lastTick = t
	}

	n := e.tags.DocCount()
	// One snapshot per tick of whatever the workers will read, so the
	// parallel shard workers never touch (and mutate, or serialise on) the
	// shared trackers. The tag-count index is keyed by interned tag ID and
	// reused across ticks: workers then look pair members up by uint32
	// instead of hashing two strings per pair. Seed reselection is fused
	// into the same pass over the tag statistics (one map iteration per
	// tick, not two), selecting through a bounded heap with exactly Top's
	// ordering.
	ts := &e.tick
	ts.beginCounts()
	ts.topStats = e.tags.TopAppend(e.seeds.K, e.seeds.Criterion, e.seeds.MinCount,
		ts.topStats[:0], func(tag string, id uint32, v float64) {
			// IDs resolve through intern.Find (installed as the tracker's
			// resolver at construction), not Intern: ID assignment happens
			// only on the ingest path, in first-seen stream order, so
			// replays shard identically. A tag with no ID was never part
			// of any candidate pair (only ≥2-tag documents intern), so its
			// count can never be read by the evaluation below.
			if id != tagstats.NoID {
				ts.setCount(id, v)
			}
		})
	seeds := e.seeds.ReselectFrom(ts.topStats)

	// Promote tail-tier pairs whose estimates crossed the admission floor
	// before taking evaluation snapshots, so a re-admitted pair is scored
	// in this same tick. No-op while the tail sketch is disabled. Runs at
	// tick time, not ingest time: promotion scans the per-shard summaries,
	// which would be wasted work on the per-document path, and tick
	// boundaries are event-time deterministic, so promotion points replay
	// identically.
	e.pairsTr.PromoteTail(t)

	// Snapshot every shard's pairs first, then decide the round advance
	// from the snapshots themselves: the workers evaluate exactly these
	// pairs, so the shard detectors' evaluation-round clocks advance
	// precisely when a single global detector would.
	nsh := e.pairsTr.Shards()
	forEachShard(nsh, func(i int) {
		ts.snaps[i] = e.pairsTr.AppendSnapshot(i, ts.snaps[i][:0])
		if e.co != nil {
			ts.coSnaps[i] = e.co.AppendSnapshot(i, ts.coSnaps[i][:0])
		}
	})
	if e.co != nil {
		ts.co.Build(ts.coSnaps)
	}
	total := 0
	for _, s := range ts.snaps {
		total += len(s)
	}
	if total > 0 {
		e.det.BeginTick(t)
	}

	eval := func(i int) {
		snap := ts.snaps[i]
		det := e.det.Shard(i)
		hbuf, hidx := ts.heapBuf[i][:0], ts.heapIdx[i][:0]
		// One Topic reused across the whole shard: the detector assigns
		// every field when it fills it, and topkPush copies only when the
		// topic is actually kept. The running heap root is fed back to the
		// detector as the admission floor, so a pair that provably cannot
		// reach the shard's current top-k (its undecayed score bound is
		// below the root) updates its predictor state and returns without
		// ever materialising a Topic or computing an exponential — the
		// selected set is exactly what an unfloored evaluation would select.
		var topic shift.Topic
		floor := 0.0
		for _, pc := range snap {
			var filled bool
			ida, idb := pc.Key.IDs()
			if e.co != nil {
				filled = det.EvaluateCorrelationInto(t, pc.Key, pc.Slot,
					ts.co.Similarity(ida, idb), pc.Count, floor, &topic)
			} else {
				filled = det.EvaluateInto(t, pc.Key, pc.Slot, pc.Count,
					ts.count(ida), ts.count(idb), n, floor, &topic)
			}
			if filled && topic.Score > 0 {
				hbuf, hidx = topkPush(hbuf, hidx, e.cfg.TopK, &topic)
				if len(hidx) == e.cfg.TopK {
					floor = hbuf[hidx[0]].Score
				}
			}
		}
		// Materialise the kept set best-first: sort the index heap (int32
		// swaps, in-place reads) and copy each topic out once.
		slices.SortFunc(hidx, func(a, b int32) int { return topicCmp(&hbuf[a], &hbuf[b]) })
		top := ts.tops[i][:0]
		for _, j := range hidx {
			top = append(top, hbuf[j])
		}
		// Every pair just evaluated carries seen == t, so the stale sweep
		// is exactly the old keep-map sweep without building a keep set.
		det.SweepStale(t, 1e-9)
		ts.heapBuf[i], ts.heapIdx[i], ts.tops[i] = hbuf, hidx, top
	}
	forEachShard(nsh, eval)

	ts.merged = ts.merged[:0]
	for _, shardTop := range ts.tops {
		ts.merged = append(ts.merged, shardTop...)
	}
	sortTopics(ts.merged)
	m := ts.merged
	if len(m) > e.cfg.TopK {
		m = m[:e.cfg.TopK]
	}
	// The published ranking owns a fresh slice: the merge buffer is reused
	// next tick, while the Ranking escapes to the broker and history.
	topics := append([]shift.Topic(nil), m...)

	r := Ranking{At: t, Seeds: seeds, Topics: topics}
	e.rankMu.Lock()
	e.last = r
	e.rankMu.Unlock()
	// Hand the ranking to the broker; delivery to subscriptions happens
	// on the dispatcher goroutine, outside e.mu, so consumers may call
	// back into the engine.
	e.broker.publish(r)
	return r
}

// CurrentRanking returns a defensive copy of the most recent ranking. Safe
// for concurrent use with the consuming goroutine; mutating the returned
// slices cannot corrupt the engine's published state.
//
//enblogue:acquires rank
func (e *Engine) CurrentRanking() Ranking {
	e.rankMu.Lock()
	defer e.rankMu.Unlock()
	return e.last.Clone()
}
