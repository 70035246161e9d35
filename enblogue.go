package enblogue

// This file is the public engine surface. The package documentation lives
// in doc.go. Types are aliases for their internal definitions, so values
// flow between the public API and in-module code with no conversion, while
// everything under internal/ remains free to change.

import (
	"context"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/entity"
	"enblogue/internal/pairs"
	"enblogue/internal/persona"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
)

// Core wire types, re-exported.
type (
	// Item is the stream tuple of the paper: (timestamp, docId, set of
	// tags, set of entities), plus optional raw text for entity tagging.
	Item = stream.Item
	// Key is the canonical identifier of a tag pair (Tag1 <= Tag2).
	Key = pairs.Key
	// Topic is one scored emergent topic: the pair plus its shift-score
	// diagnostics (correlation, prediction, error, co-occurrence).
	Topic = shift.Topic
	// Ranking is one evaluation tick's output: the top-k emergent topics.
	Ranking = core.Ranking
	// Profile is a user's standing preferences: continuous keyword
	// queries, categories, boost, and the exclusive filter.
	Profile = persona.Profile
	// Subscription is a live per-subscriber notification feed; see
	// Engine.Subscribe.
	Subscription = core.Subscription
	// Notification is one delivered tick as a subscription sees it: the
	// matched topics plus the entered/left delta, with the full ranking
	// view materialised lazily on first access.
	Notification = core.Notification
	// SubOption configures one subscription.
	SubOption = core.SubOption
	// TailStats is the tiered exact/sketch memory statistics view; see
	// Engine.TailStats and WithTailSketch.
	TailStats = core.TailStats
	// Measure selects the pair correlation measure.
	Measure = pairs.Measure
	// Predictor selects the correlation forecaster whose error is the
	// shift signal.
	Predictor = predict.Kind
	// PredictorConfig tunes the selected predictor.
	PredictorConfig = predict.Config
	// Tagger annotates raw text with canonical entity names.
	Tagger = entity.Tagger
	// Source produces a stream of items; Run pushes each into emit.
	Source = stream.Source
	// SourceFunc adapts a function to the Source interface.
	SourceFunc = stream.SourceFunc
	// Items is an in-memory item slice that replays in order as a Source.
	Items = stream.SliceSource
)

// Correlation measures.
const (
	Jaccard    = pairs.Jaccard
	Dice       = pairs.Dice
	Cosine     = pairs.Cosine
	NPMI       = pairs.NPMI
	Overlap    = pairs.Overlap
	Confidence = pairs.Confidence
)

// Predictors.
const (
	PredictNaive         = predict.KindNaive
	PredictMovingAverage = predict.KindMovingAverage
	PredictEWMA          = predict.KindEWMA
	PredictHolt          = predict.KindHolt
	PredictOLS           = predict.KindOLS
	PredictAR1           = predict.KindAR1
	PredictSeasonal      = predict.KindSeasonal
)

// MakeKey returns the canonical key for tags a and b.
func MakeKey(a, b string) Key { return pairs.MakeKey(a, b) }

// ParseMeasure resolves a measure by name (jaccard, dice, cosine, npmi,
// overlap, confidence).
func ParseMeasure(name string) (Measure, error) { return pairs.ParseMeasure(name) }

// ParsePredictor resolves a predictor by name (naive, ma, ewma, holt, ols,
// ar1, seasonal).
func ParsePredictor(name string) (Predictor, error) { return predict.ParseKind(name) }

// KeywordQuery renders a topic tag set as the traditional keyword query
// the paper proposes as the hand-off to downstream exploration.
func KeywordQuery(tags []string) string { return core.KeywordQuery(tags) }

// Subscription options, re-exported. See the core definitions for the
// drop-oldest delivery contract.

// SubBuffer sets the subscription's channel capacity (default 16).
func SubBuffer(n int) SubOption { return core.SubBuffer(n) }

// SubTopK trims every delivered ranking to its best k topics.
func SubTopK(k int) SubOption { return core.SubTopK(k) }

// SubProfile attaches a persona: the subscriber receives its personalized
// re-ranking of every tick instead of the broadcast ranking.
func SubProfile(p *Profile) SubOption { return core.SubProfile(p) }

// WithTags restricts the subscription to topics containing at least one of
// the given tags (any-of). Predicates are compiled once at Subscribe time
// into interned tag IDs and indexed invertedly, so ticks that do not move
// a subscribed tag cost the subscription nothing; the subscriber is
// notified only when its filtered view changes. Tags the stream has not
// produced yet resolve automatically when they first appear.
func WithTags(tags ...string) SubOption { return core.SubTags(tags...) }

// WithAllTags restricts the subscription to topics containing every one of
// the given tags (all-of). A topic is a tag pair, so more than two
// all-tags can never match.
func WithAllTags(tags ...string) SubOption { return core.SubAllTags(tags...) }

// WithMinScore suppresses topics scoring below min (values <= 0 mean no
// floor) and makes the subscription delta-driven.
func WithMinScore(min float64) SubOption { return core.SubMinScore(min) }

// WithEmergenceOnly delivers only topics newly entering the subscription's
// filtered view, skipping ticks where nothing new emerged.
func WithEmergenceOnly() SubOption { return core.SubEmergenceOnly() }

// Engine is the public emergent-topic engine. It consumes (timestamp,
// docId, tags, entities) tuples and emits ranked emergent topics at every
// evaluation tick; all methods are safe for concurrent use. Construct with
// New.
type Engine struct {
	core *core.Engine
}

// New returns an engine configured by the given options. With no options
// it uses the paper's defaults: Jaccard correlation, moving-average
// prediction, 2-day half-life, hourly ticks over a 48-hour window, one
// shard per available CPU. Nonsensical options are clamped to those
// defaults rather than building a wedged engine. To host many named
// engines in one process, open them as tenants of a Hub instead.
func New(opts ...Option) *Engine {
	var cfg core.Config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return &Engine{core: core.New(cfg)}
}

// Consume feeds one tuple through the engine: a ConsumeBatch of one. Safe
// for concurrent producers, which serialise on the engine's bookkeeping
// lock for the whole document.
func (e *Engine) Consume(it *Item) { e.core.Consume(it) }

// ConsumeBatch feeds a run of tuples through the engine — the one ingest
// path — firing evaluation ticks as event time passes tick boundaries. It
// pays the engine's bookkeeping lock once per batch. Rankings do not depend
// on how a stream is cut into batches. Safe for concurrent producers, which
// serialise on the bookkeeping lock for the whole batch.
func (e *Engine) ConsumeBatch(items []*Item) { e.core.ConsumeBatch(items) }

// runBatch is the longest run of documents Run hands to one ConsumeBatch.
// Rankings do not depend on it; it only sets how often the lock is paid.
const runBatch = 512

// Run drains a source into the engine and, when the source ends cleanly,
// flushes a final evaluation tick at the last observed event time. It
// returns the source's error (context cancellation included) without
// flushing, leaving the last completed tick as the published ranking.
//
// Items are fed through the batched consume path in source order — emitted
// items accumulate into runs of up to runBatch documents and each run is
// consumed in one ConsumeBatch call, so the engine pays its locks per batch
// instead of per document.
func (e *Engine) Run(ctx context.Context, src Source) error {
	batch := make([]*Item, 0, runBatch)
	flush := func() {
		e.core.ConsumeBatch(batch)
		clear(batch) // release item references
		batch = batch[:0]
	}
	err := src.Run(ctx, func(it *Item) {
		if batch = append(batch, it); len(batch) == cap(batch) {
			flush()
		}
	})
	// Items the source emitted before failing were accepted, so they are
	// consumed either way; only the final flush tick is error-gated.
	flush()
	if err != nil {
		return err
	}
	e.core.Flush()
	return nil
}

// Flush runs a final evaluation tick at the last observed event time and
// blocks until every published ranking has been delivered to subscribers
// and callbacks.
func (e *Engine) Flush() { e.core.Flush() }

// Tick forces an evaluation at time t; see the engine core for the
// monotonicity contract. Returns the resulting (or current) ranking.
func (e *Engine) Tick(t time.Time) Ranking { return e.core.Tick(t) }

// CurrentRanking returns a defensive copy of the most recent ranking.
func (e *Engine) CurrentRanking() Ranking { return e.core.CurrentRanking() }

// Subscribe registers a live notification feed fed by non-blocking,
// delta-driven fan-out: each tick's view — predicate-filtered,
// persona-reranked, and top-k-trimmed per the options — is delivered to
// the returned subscription's bounded channel, dropping the oldest
// buffered notifications for slow consumers (drops are counted).
// Predicated subscriptions (WithTags, WithAllTags, WithMinScore,
// WithEmergenceOnly) are dispatched through an inverted tag index and
// receive only ticks where their filtered view changed. Cancelling ctx
// closes the subscription.
func (e *Engine) Subscribe(ctx context.Context, opts ...SubOption) *Subscription {
	return e.core.Subscribe(ctx, opts...)
}

// Subscribers returns the number of live subscriptions.
func (e *Engine) Subscribers() int { return e.core.Subscribers() }

// IndexedTags returns the number of distinct tags referenced by at least
// one live subscription predicate.
func (e *Engine) IndexedTags() int { return e.core.IndexedTags() }

// MatchedLastTick returns how many subscriptions were handed a
// notification on the most recently dispatched tick.
func (e *Engine) MatchedLastTick() int64 { return e.core.MatchedLastTick() }

// RankingsDropped returns the total rankings discarded across all
// subscriptions because consumers fell behind.
func (e *Engine) RankingsDropped() int64 { return e.core.RankingsDropped() }

// Close stops ranking delivery: it drains in-flight deliveries and closes
// every subscription channel. Call Flush first if the final partial tick
// should still reach subscribers.
func (e *Engine) Close() { e.core.Close() }

// Seeds returns a copy of the current seed tag set, best first.
func (e *Engine) Seeds() []string { return e.core.Seeds() }

// DocsProcessed returns the number of consumed documents.
func (e *Engine) DocsProcessed() int64 { return e.core.DocsProcessed() }

// ActivePairs returns the number of tracked candidate pairs. Pairs whose
// window has emptied since the last tick count until the next tick drops
// them.
func (e *Engine) ActivePairs() int { return e.core.ActivePairs() }

// Shards returns the number of engine shards.
func (e *Engine) Shards() int { return e.core.Shards() }

// TailStats returns the tiered exact/sketch memory statistics: tail size
// and error bound, promotion and eviction counters. The per-shard eviction
// counters are live even without WithTailSketch (Enabled reports false).
func (e *Engine) TailStats() TailStats { return e.core.TailStats() }

// LastEventTime returns the newest event timestamp consumed so far (zero
// before the first document).
func (e *Engine) LastEventTime() time.Time { return e.core.LastEventTime() }

// ExpandTopic grows a detected pair into a tag set: the pair plus up to
// maxExtra tags that currently co-occur with both members.
func (e *Engine) ExpandTopic(k Key, maxExtra int) []string {
	return e.core.ExpandTopic(k, maxExtra)
}
