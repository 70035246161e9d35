package main

import (
	"time"

	"enblogue"
	"enblogue/internal/core"
)

// workload is one named input set: a stream shape, the engine options it
// runs under, and which harness drives it. The counts were sized on a
// 2-CPU sandbox so that a pass takes well under a second (throughput is a
// median over passes) and the warm-up passes fill the statistics window
// once, after which the tracked state is stationary.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	Why    string
	Stream streamSpec
	// Opts are the engine options beyond TickEvery and SeedCount, which
	// always follow the stream spec. dir is the durable data directory.
	Opts func(dir string) []enblogue.Option
	// Warm passes precede the measured region and count toward setup_s.
	Warm int
	// Subs predicate subscriptions are attached after the warm-up and
	// drained by the producer between batches.
	Subs int
	// FlushEachPass closes every pass with Engine.Flush, charging the
	// dispatcher's backlog to the pass: the publish queue is unbounded, so
	// only a flushed region has dispatch on its clock.
	FlushEachPass bool
	// Durable runs with a WAL, snapshots every SnapshotEvery passes, and
	// starts its measured region on an engine recovered from disk.
	Durable       bool
	SnapshotEvery int
	// Evicts states whether the stream is meant to overflow MaxPairs; a run
	// where it does on any other workload, or does not on this one, has
	// lost the property the workload exists for.
	Evicts bool
	// Unsized marks a shrunken (smoke) copy: the checks that the stream still
	// has the properties it was sized for (eviction or none, every
	// happening detected) only warn.
	Unsized bool
	// Serve drives the stream through the /v1 HTTP edge instead of the
	// in-process API.
	Serve bool
}

// batchDocs is the ConsumeBatch size of the in-process producers — the
// engine's own default ingest batch.
const batchDocs = 512

// Open-loop constants of the serve workload: fixed here, never derived at
// run time, so every commit is offered the same load. (BENCHMARK.json's
// schema is closed and has no key for them; the serve workload's line there
// quotes the rate.)
const (
	serveOpenDocsPerSec = 20000
	serveLatencyLimit   = 50 * time.Millisecond
	// serveClosedShare of --seconds goes to the closed phase, the rest to
	// the open one.
	serveClosedShare = 0.35
	servePersonas    = 8
)

var wideStream = streamSpec{
	Tags: 800, ZipfS: 1.2, MeanTags: 6,
	TickEvery: time.Hour, DocsPerTick: 10000, PassTicks: 4,
	Happenings: 1, HappeningDocs: 400, HappeningEvery: 3, SeedCount: 50,
}

var workloads = []workload{
	{
		Name:   "ingest-wide",
		Why:    "wide documents, rare ticks, no eviction: per-document layers (tagstats, pair observe, window arena) are the bill; a faster tick must show nothing here",
		Stream: wideStream,
		Warm:   12,
	},
	{
		Name: "tick-dense",
		Why:  "a tick every 30 documents over ~30k tracked pairs: snapshot, shift evaluation and merge are the bill; an ingest-only gain must show nothing here",
		Stream: streamSpec{
			Tags: 20000, ZipfS: 1.05, MeanTags: 4,
			TickEvery: 3 * time.Minute, DocsPerTick: 30, PassTicks: 240,
			Happenings: 1, HappeningDocs: 25, SeedCount: 200,
		},
		Warm: 4,
	},
	{
		Name: "churn",
		Why:  "200k-tag vocabulary under a 5000-pair budget with the sketch tier on: every document inserts pairs and sweeps evict, demote and promote, so gains bought with eviction-heavy streams are caught",
		Stream: streamSpec{
			Tags: 200000, ZipfS: 1.01, MeanTags: 4,
			TickEvery: time.Hour, DocsPerTick: 1000, PassTicks: 12,
			Happenings: 1, HappeningDocs: 200, SeedCount: 50,
		},
		Opts: func(string) []enblogue.Option {
			// Epsilon is two orders below the option's default: the sketch
			// over-estimates by up to epsilon × tail mass, and at 0.01 that
			// slack (thousands of co-occurrences here) lets promoted noise
			// outrank every scripted happening.
			return []enblogue.Option{enblogue.WithMaxPairs(5000), enblogue.WithTailSketch(0.0001, 0.01, 512)}
		},
		Warm:   4,
		Evicts: true,
	},
	{
		Name: "fanout",
		Why:  "10000 predicate subscriptions over a small vocabulary ticking every 50 documents: broker and subscription index are the bill; ingest and tick are tiny",
		Stream: streamSpec{
			Tags: 500, ZipfS: 1.4, MeanTags: 2,
			TickEvery: 2 * time.Minute, DocsPerTick: 50, PassTicks: 30,
			Happenings: 1, HappeningDocs: 40, HappeningEvery: 2, SeedCount: 50,
			HotShare: 0.2,
		},
		Opts: func(string) []enblogue.Option {
			// A happening every two event-hours under a four-hour half-life,
			// and a warm-up of 24 half-lives: the ranking is in its steady
			// state (the recent bursts of all eight seed tags, cold-start
			// transients long gone) before the population subscribes, so the
			// matched share — and with it the work per document — does not
			// drift with how far a run gets. Under the two-day default it
			// fell by a fifth within a 15 s region.
			return []enblogue.Option{enblogue.WithHalfLife(4 * time.Hour)}
		},
		Warm:          96,
		Subs:          10000,
		FlushEachPass: true,
	},
	{
		Name: "serve",
		Why:  "the only workload crossing the /v1 edge over loopback TCP: JSONL decode, sort, view marshal, persona rerank and SSE write; closed loop for throughput, open loop at 20000 docs/s for POST-to-SSE latency",
		Stream: streamSpec{
			Tags: 500, ZipfS: 1.4, MeanTags: 2,
			TickEvery: time.Minute, DocsPerTick: 200, PassTicks: 60,
			Happenings: 1, HappeningDocs: 150, HappeningEvery: 2, SeedCount: 30,
			TagNames:   map[int]string{8: "athens", 11: "air-traffic"},
			FreshNames: []string{"sigmod", "volcano"},
		},
		Opts: func(string) []enblogue.Option {
			// cmd/enblogue-server's hub defaults, plus a half-life that
			// keeps the command's 48 ticks per half-life at minute ticks:
			// with the two-day default a minute-tick engine still ranks its
			// own cold-start transients (first ticks over a few hundred
			// documents) above everything else a day later.
			return []enblogue.Option{
				enblogue.WithWindow(24, time.Hour),
				enblogue.WithMinCooccurrence(3),
				enblogue.WithTopK(10),
				enblogue.WithUpOnly(),
				enblogue.WithHalfLife(48 * time.Minute),
			}
		},
		Warm:  24,
		Serve: true,
	},
	{
		Name:   "durable",
		Why:    "ingest-wide's stream with the WAL on the ingest path, periodic snapshots, and a measured region on an engine recovered from disk: its docs/s against ingest-wide's is the price of durability",
		Stream: wideStream,
		Opts: func(dir string) []enblogue.Option {
			return []enblogue.Option{enblogue.WithDurability(dir, enblogue.SnapshotEvery(-1))}
		},
		Warm:          12,
		Durable:       true,
		SnapshotEvery: 2,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// engineConfig assembles the engine configuration the way enblogue.New
// does — public options applied to a zero core.Config — so the harness can
// hold the *core.Engine (PublishRanking is not on the public wrapper).
func (w *workload) engineConfig(dir string, extra ...enblogue.Option) core.Config {
	var cfg core.Config
	opts := []enblogue.Option{
		enblogue.WithTickEvery(w.Stream.TickEvery),
		enblogue.WithSeedCount(w.Stream.SeedCount),
	}
	if w.Opts != nil {
		opts = append(opts, w.Opts(dir)...)
	}
	for _, o := range append(opts, extra...) {
		o(&cfg)
	}
	return cfg
}

// smoke returns the workload at a fraction of its size: a fifth of the
// documents per tick (where a tick has more than a few hundred), a quarter
// of the ticks per pass, a sixth of the warm-up, a twentieth of the
// subscribers, and a fixed handful of measured passes. Every output check
// stays on except the one a stream this short cannot meet: with the window
// never filled, the top-k still holds cold-start transients, so a happening
// that misses it is reported but does not fail the run.
func (w *workload) smoke() *workload {
	c := *w
	if c.Stream.DocsPerTick > 200 {
		c.Stream.DocsPerTick /= 5
	}
	c.Stream.HappeningDocs = c.Stream.DocsPerTick
	c.Stream.PassTicks = max(4, c.Stream.PassTicks/4)
	c.Warm = max(2, c.Warm/6)
	c.Subs /= 20
	c.Unsized = true
	return &c
}
