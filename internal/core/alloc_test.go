package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"enblogue/internal/stream"
)

// Allocation-regression bounds for the ingest/tick hot path. The engine's
// steady state — vocabulary interned, pairs tracked, counters resident in
// the arenas, tick buffers warmed — must not allocate per document, and an
// evaluation tick must allocate O(top-k), not O(tracked pairs). These
// tests pin both so the zero-allocation property cannot silently regress.

// allocWorkload builds a fixed synthetic stream: docs cycling over a small
// vocabulary so every pair exists after one pass.
func allocWorkload(n int) []*stream.Item {
	items := make([]*stream.Item, n)
	for i := range items {
		items[i] = &stream.Item{
			Time:  t0.Add(time.Duration(i) * time.Second),
			DocID: fmt.Sprintf("d%d", i),
			Tags: []string{
				fmt.Sprintf("a%d", i%7),
				fmt.Sprintf("b%d", i%5),
				fmt.Sprintf("c%d", i%3),
			},
		}
	}
	return items
}

// skipUnderRace skips allocation-count assertions in -race builds: the
// race detector's instrumentation allocates and bypasses sync.Pool
// caching, so the counts only reflect the instrumentation.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestConsumeSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	cfg.Shards = 1
	cfg.TickEvery = 1000 * time.Hour // keep ticks out of the measurement
	e := New(cfg)
	items := allocWorkload(100)
	// Warm up: intern the vocabulary, create every pair and counter, select
	// seeds.
	for range [3]int{} {
		for _, it := range items {
			e.Consume(it)
		}
	}
	// Re-consuming the same in-window stream is the steady state: no new
	// tags, pairs, or ticks.
	avg := testing.AllocsPerRun(50, func() {
		for _, it := range items {
			e.Consume(it)
		}
	})
	// avg counts allocations per 100-document run; a handful across an
	// entire run tolerates map-rehash noise while still failing on any
	// per-document allocation.
	if avg > 3 {
		t.Errorf("steady-state Consume allocates %.1f per %d docs, want ~0", avg, len(items))
	}
}

func TestConsumeSteadyStateAllocsSharded(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	cfg.Shards = 4
	cfg.TickEvery = 1000 * time.Hour
	e := New(cfg)
	items := allocWorkload(100)
	for range [3]int{} {
		for _, it := range items {
			e.Consume(it)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, it := range items {
			e.Consume(it)
		}
	})
	if avg > 3 {
		t.Errorf("steady-state sharded Consume allocates %.1f per %d docs, want ~0", avg, len(items))
	}
}

// tailPressureConfig runs the tiered sketch tail under eviction pressure:
// the pair budget is below allocWorkload's pair count, so every pass over
// it sweeps, evicts and demotes.
func tailPressureConfig() Config {
	cfg := testConfig()
	cfg.TickEvery = 1000 * time.Hour // ticks only where a test calls Tick
	cfg.MaxPairs = 40                // allocWorkload carries 71 distinct pairs
	cfg.TailSketch = TailSketchConfig{Enabled: true, Epsilon: 0.01, Delta: 0.01, TopK: 64}
	return cfg
}

// With the tiered sketch tail enabled and eviction pressure live, steady
// ingest allocates nothing: the sweep ranks victims in a reused buffer
// with an allocation-free selection, and demotion (sketch ingest, summary
// upkeep) is allocation-free too.
func TestConsumeSteadyStateAllocsTailSketch(t *testing.T) {
	skipUnderRace(t)
	cfg := tailPressureConfig()
	cfg.Shards = 2
	e := New(cfg)
	items := allocWorkload(100)
	for range [3]int{} {
		for _, it := range items {
			e.Consume(it)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, it := range items {
			e.Consume(it)
		}
	})
	if avg != 0 {
		t.Errorf("tail-enabled Consume allocates %.1f per %d docs, want 0", avg, len(items))
	}
}

// wideWorkload builds documents of 40 tags each: 30 distinct tags from a
// 60-tag vocabulary, eight repeats and two empty tags — past any small-set
// dedup shortcut, so only an allocation-free dedup of any size passes.
func wideWorkload(n int) []*stream.Item {
	items := make([]*stream.Item, n)
	for i := range items {
		tags := make([]string, 0, 40)
		for j := 0; j < 30; j++ {
			tags = append(tags, fmt.Sprintf("w%d", (i*7+j)%60))
		}
		tags = append(tags, tags[:8]...)
		tags = append(tags, "", "")
		rand.New(rand.NewSource(int64(i))).Shuffle(len(tags), func(a, b int) { tags[a], tags[b] = tags[b], tags[a] })
		items[i] = &stream.Item{Time: t0.Add(time.Duration(i) * time.Second), DocID: fmt.Sprintf("d%d", i), Tags: tags}
	}
	return items
}

// Wide documents — 40 tags with repeats and empty tags — ingest without
// allocating once the vocabulary, pairs and buffers are warm.
func TestConsumeWideDocsSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	cfg.Shards = 2
	cfg.TickEvery = 1000 * time.Hour
	e := New(cfg)
	items := wideWorkload(100)
	for range [3]int{} {
		for _, it := range items {
			e.Consume(it)
		}
	}
	if e.ActivePairs() == 0 {
		t.Fatal("no pairs tracked; the workload does not reach pair planning")
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, it := range items {
			e.Consume(it)
		}
	})
	if avg > 3 {
		t.Errorf("steady-state Consume of 40-tag documents allocates %.1f per %d docs, want ~0", avg, len(items))
	}
}

func TestConsumeBatchSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = shards
			cfg.TickEvery = 1000 * time.Hour
			e := New(cfg)
			items := allocWorkload(100)
			for range [3]int{} {
				e.ConsumeBatch(items)
			}
			// Steady state: the batch scratch, pending-doc buffer, and
			// per-shard chunk groups are all warmed and reused, so a whole
			// batch must stay within the same ~zero budget as serial
			// Consume — far under the 1-alloc-per-doc acceptance bound.
			avg := testing.AllocsPerRun(50, func() {
				e.ConsumeBatch(items)
			})
			if avg > float64(len(items)) {
				t.Errorf("steady-state ConsumeBatch allocates %.1f per %d docs, want ≤1/doc", avg, len(items))
			}
			if avg > 3 {
				t.Errorf("steady-state ConsumeBatch allocates %.1f per %d docs, want ~0", avg, len(items))
			}
		})
	}
}

func TestTickSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	cfg.Shards = 1 // single shard: no per-tick worker goroutines measured
	e := New(cfg)
	items := allocWorkload(500)
	for _, it := range items {
		e.Consume(it)
	}
	// Warm the tick buffers (snapshot, top-k, count index) with a few
	// evaluation passes.
	at := e.LastEventTime()
	for i := 0; i < 3; i++ {
		at = at.Add(time.Hour)
		e.Tick(at)
	}
	avg := testing.AllocsPerRun(20, func() {
		at = at.Add(time.Hour)
		e.Tick(at)
	})
	// One tick still allocates a bounded working set — the reselected seed
	// list, the published ranking's topic slice, and the defensive copy
	// Tick returns — but nothing proportional to the tracked-pair count
	// (hundreds here). The bound is ~3x the warmed steady state, far below
	// the per-pair regime.
	if avg > 60 {
		t.Errorf("forced tick allocates %.1f, want bounded O(top-k)", avg)
	}

	// Distribution mode rebuilds the co-tag index every tick into buffers
	// reused across ticks, so its tick allocates exactly what the default
	// tick does.
	t.Run("dist", func(t *testing.T) {
		cfg := testConfig()
		cfg.Shards = 1
		cfg.DistributionMode = true
		e := New(cfg)
		for _, it := range items {
			e.Consume(it)
		}
		at := e.LastEventTime()
		for i := 0; i < 3; i++ {
			at = at.Add(time.Hour)
			e.Tick(at)
		}
		dist := testing.AllocsPerRun(20, func() {
			at = at.Add(time.Hour)
			e.Tick(at)
		})
		if len(e.CurrentRanking().Topics) == 0 {
			t.Fatal("distribution-mode ticks ranked nothing; the comparison would be vacuous")
		}
		if dist != avg {
			t.Errorf("distribution-mode tick allocates %.1f, the default tick %.1f: want the co-tag index to add 0", dist, avg)
		}
	})

	// Tail on and over budget: each step ingests until a sweep has just
	// evicted (leaving headroom under MaxPairs), then ticks, so every
	// measured tick promotes. Ingest, sweep, demotion and promotion add
	// nothing to what a tick without them allocates.
	t.Run("tail", func(t *testing.T) {
		cfg := tailPressureConfig()
		cfg.Shards = 1
		e := New(cfg)
		items := allocWorkload(100)
		at := e.LastEventTime()
		step := func() {
			for _, it := range items {
				e.Consume(it)
			}
			for i := 0; e.ActivePairs() > 36; i++ { // evictTarget(40)
				if i == 10*len(items) {
					t.Fatal("no over-budget sweep in ten passes")
				}
				e.Consume(items[i%len(items)])
			}
			at = at.Add(time.Hour)
			e.Tick(at)
		}
		for i := 0; i < 5; i++ {
			step()
		}
		before := e.TailStats().Promotions
		avg := testing.AllocsPerRun(20, step)
		if got := e.TailStats().Promotions - before; got < 21 {
			t.Fatalf("%d promotions over 21 ticks, want every tick to promote", got)
		}
		tickOnly := testing.AllocsPerRun(20, func() {
			at = at.Add(time.Hour)
			e.Tick(at)
		})
		if avg != tickOnly {
			t.Errorf("ingest+promoting tick allocates %.1f, a bare tick %.1f: want the promotion path to add 0", avg, tickOnly)
		}
	})
}

// The tick's tag-count index grows with the interned vocabulary. Growth
// is geometric, so a vocabulary that arrives one new maximum ID at a time
// costs O(log n) reallocations of its two slices, not one per ID.
func TestTickScratchCountsGrowGeometrically(t *testing.T) {
	skipUnderRace(t)
	const n = 1 << 16
	avg := testing.AllocsPerRun(5, func() {
		ts := newTickScratch(1)
		ts.beginCounts()
		for id := uint32(0); id < n; id++ {
			ts.setCount(id, float64(id))
		}
		if ts.count(n-1) != n-1 {
			t.Fatal("setCount lost the newest ID")
		}
	})
	// Two slices, each reallocated about log2(n) = 16 times under append's
	// growth, plus the scratch's own per-shard slices.
	if avg > 80 {
		t.Errorf("ascending IDs 0…%d cost %.0f allocations, want O(log n)", n-1, avg)
	}
}

// A dispatch whose ranking moves no subscribed tag must not allocate at
// all, no matter how many predicated subscriptions are parked in the
// index — the subscription-index contract that makes "millions of
// standing queries" plausible.
func TestDispatchUnmatchedZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	e := New(cfg)
	defer e.Close()
	// 200 predicated subscriptions on tags that never appear in the
	// published rankings (interned, so the pending path is not measured).
	for i := 0; i < 200; i++ {
		tag := fmt.Sprintf("cold-%d", i)
		pairsMustIntern(tag)
		e.Subscribe(nil, SubTags(tag), SubBuffer(1))
	}
	hot := mkRanking(t0, mkTopic("hot-a", "hot-b", 1.0), mkTopic("hot-c", "hot-d", 0.5))
	// Warm the dispatcher scratch (prevView, moved-ID and candidate
	// buffers, queue slot) and deliver the initial views.
	for i := 0; i < 3; i++ {
		hot.At = hot.At.Add(time.Hour)
		hot.Topics[0].Score += 0.1
		e.PublishRanking(hot)
	}
	avg := testing.AllocsPerRun(100, func() {
		hot.At = hot.At.Add(time.Hour)
		hot.Topics[0].Score += 0.1
		e.PublishRanking(hot)
	})
	if avg > 0 {
		t.Errorf("unmatched dispatch allocates %.2f per tick, want 0", avg)
	}
}

// A matched predicated subscriber costs a small, bounded number of
// allocations per delivered notification: the notification itself, the
// tick's shared payload (one per distinct view, here the only one), and
// drainNotifs' result slice — never a per-subscriber topic copy, and never
// a full-ranking clone.
func TestDispatchMatchedSubscriberAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := testConfig()
	e := New(cfg)
	defer e.Close()
	pairsMustIntern("hot-a")
	sub := e.Subscribe(nil, SubTags("hot-a"), SubBuffer(2))
	r := mkRanking(t0, mkTopic("hot-a", "hot-b", 1.0), mkTopic("hot-c", "hot-d", 0.5))
	for i := 0; i < 3; i++ {
		r.At = r.At.Add(time.Hour)
		r.Topics[0].Score += 0.1
		e.PublishRanking(r)
		drainNotifs(sub)
	}
	avg := testing.AllocsPerRun(100, func() {
		r.At = r.At.Add(time.Hour)
		r.Topics[0].Score += 0.1
		e.PublishRanking(r)
		drainNotifs(sub)
	})
	if avg > 3 {
		t.Errorf("matched dispatch allocates %.1f per tick, want ≤3", avg)
	}
}

// Subscribers that see the same view share one payload per tick: 100
// subscriptions on one moving tag cost one Notification each plus one
// payload, not one topic copy per subscriber.
func TestDispatchSharedViewAllocs(t *testing.T) {
	skipUnderRace(t)
	const nsubs = 100
	e := New(testConfig())
	defer e.Close()
	pairsMustIntern("shared-a")
	subs := make([]*Subscription, nsubs)
	for i := range subs {
		subs[i] = e.Subscribe(nil, SubTags("shared-a"), SubBuffer(2))
	}
	r := mkRanking(t0, mkTopic("shared-a", "shared-b", 1.0), mkTopic("other-c", "other-d", 0.5))
	tick := func() {
		r.At = r.At.Add(time.Hour)
		r.Topics[0].Score += 0.1
		e.PublishRanking(r)
		for _, s := range subs {
			select {
			case <-s.Notifications():
			default:
				t.Fatal("a subscriber on the moving tag was not notified")
			}
		}
	}
	for i := 0; i < 3; i++ {
		tick()
	}
	avg := testing.AllocsPerRun(100, tick)
	if avg > nsubs+4 {
		t.Errorf("shared-view dispatch allocates %.1f per tick, want ≤%d (one Notification per delivery, one payload per tick)", avg, nsubs+4)
	}
}

// A predicated subscription keeps only what dispatch reads (top-k,
// persona, compiled matcher): 10 000 subscriptions shaped like the fanout
// workload's — one to three any-of tags, every tenth also score-floored
// and emergence-only, one-slot buffers — must cost at most 512 bytes of
// heap each, index postings included.
func TestPredicatedSubscriptionBytes(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("heap measurement over 10 000 subscriptions")
	}
	const nsubs = 10000
	e := New(testConfig())
	defer e.Close()
	vocab := make([]string, 500)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("mem-%d", i)
		pairsMustIntern(vocab[i])
	}
	// The fanout mix: a fifth of the tags among eight hot ones, the rest
	// over the upper half of the vocabulary.
	rng := rand.New(rand.NewSource(1))
	tags := make([][]string, nsubs)
	for i := range tags {
		tags[i] = make([]string, 1+rng.Intn(3))
		for j := range tags[i] {
			if rng.Float64() < 0.2 {
				tags[i][j] = vocab[rng.Intn(8)]
			} else {
				tags[i][j] = vocab[len(vocab)/2+rng.Intn(len(vocab)/2)]
			}
		}
	}
	subs := make([]*Subscription, 0, nsubs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < nsubs; i++ {
		opts := []SubOption{SubTags(tags[i]...), SubBuffer(1)}
		if i%10 == 9 {
			opts = append(opts, SubMinScore(0.001), SubEmergenceOnly())
		}
		subs = append(subs, e.Subscribe(nil, opts...))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nsubs
	t.Logf("%.0f B of heap per predicated subscription", per)
	if per > 512 {
		t.Errorf("predicated subscription costs %.0f B of heap, want ≤512", per)
	}
	runtime.KeepAlive(subs)
}

// pairsMustIntern forces a tag into the intern table the way ingest
// would, so predicate compilation resolves it immediately.
func pairsMustIntern(tag string) { _ = mkTopic(tag, "anchor", 0) }
