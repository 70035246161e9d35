package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

// determinismStream is a fixed replay workload with background chatter,
// an injected shift, and enough tag cardinality to spread across shards.
func determinismStream() []source.Document {
	docs := background(t0, 12, 40)
	id := 0
	for h := 5; h < 8; h++ {
		for i := 0; i < 12; i++ {
			docs = append(docs, source.Document{
				Time: t0.Add(time.Duration(h)*time.Hour + time.Duration(i*4)*time.Minute),
				ID:   ids("det", &id),
				Tags: []string{"politics", fmt.Sprintf("scandal%d", i%3)},
			})
		}
	}
	for h := 0; h < 12; h++ {
		for i := 0; i < 15; i++ {
			docs = append(docs, source.Document{
				Time: t0.Add(time.Duration(h)*time.Hour + time.Duration(i*4+1)*time.Minute),
				ID:   ids("mix", &id),
				Tags: []string{"news", fmt.Sprintf("region%d", (h+i)%9)},
			})
		}
	}
	source.SortDocs(docs)
	return docs
}

func rankingsEqual(t *testing.T, label string, a, b []Ranking) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rankings vs %d", label, len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if !ra.At.Equal(rb.At) {
			t.Fatalf("%s: tick %d at %v vs %v", label, i, ra.At, rb.At)
		}
		if len(ra.Seeds) != len(rb.Seeds) {
			t.Fatalf("%s: tick %d seed count %d vs %d", label, i, len(ra.Seeds), len(rb.Seeds))
		}
		for j := range ra.Seeds {
			if ra.Seeds[j] != rb.Seeds[j] {
				t.Fatalf("%s: tick %d seed %d: %q vs %q", label, i, j, ra.Seeds[j], rb.Seeds[j])
			}
		}
		if len(ra.Topics) != len(rb.Topics) {
			t.Fatalf("%s: tick %d topic count %d vs %d (a=%v b=%v)",
				label, i, len(ra.Topics), len(rb.Topics), ra.IDs(), rb.IDs())
		}
		for j := range ra.Topics {
			ta, tb := ra.Topics[j], rb.Topics[j]
			if ta.Pair != tb.Pair || ta.Score != tb.Score ||
				ta.Correlation != tb.Correlation || ta.Predicted != tb.Predicted ||
				ta.Error != tb.Error || ta.Cooccurrence != tb.Cooccurrence ||
				ta.Warmup != tb.Warmup {
				t.Fatalf("%s: tick %d rank %d differs:\n  a: %+v\n  b: %+v",
					label, i, j, ta, tb)
			}
		}
	}
}

// The sharded engine must emit rankings bit-identical to the serial
// (1-shard) engine on a fixed replay stream: same scores, same
// deterministic tie-break order, every tick.
func TestEngineShardedMatchesSerial(t *testing.T) {
	docs := determinismStream()
	run := func(shards int) []Ranking {
		cfg := testConfig()
		cfg.Shards = shards
		cfg.MaxPairs = 60 // small budget so eviction paths are exercised too
		e := New(cfg)
		stop := recordRankings(e)
		feedDocs(e, docs)
		return stop()
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("serial engine emitted no rankings")
	}
	nonEmpty := false
	for _, r := range serial {
		if len(r.Topics) > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		t.Fatal("serial engine emitted only empty rankings; workload too weak")
	}
	for _, shards := range []int{2, 4, 8} {
		rankingsEqual(t, fmt.Sprintf("shards-%d", shards), serial, run(shards))
	}
}

// Distribution mode must be shard-count independent too.
func TestEngineShardedMatchesSerialDistMode(t *testing.T) {
	docs := determinismStream()
	run := func(shards int) []Ranking {
		cfg := testConfig()
		cfg.Shards = shards
		cfg.DistributionMode = true
		e := New(cfg)
		stop := recordRankings(e)
		feedDocs(e, docs)
		return stop()
	}
	serial := run(1)
	rankingsEqual(t, "dist-shards-4", serial, run(4))
}

// One goroutine hammers Consume while others call Tick, CurrentRanking,
// Seeds, ActivePairs, TailStats, and ExpandTopic — the live-server pattern.
// Run under -race; the assertions are liveness/sanity, the race detector is
// the test. The tail variant runs the sketch tier under a tight MaxPairs, so
// eviction, demotion and promotion all happen while the readers run; the
// dist variant runs distribution mode, whose tick workers share one co-tag
// index read-only.
func TestEngineConcurrentConsumeAndTick(t *testing.T) {
	for _, tc := range []struct {
		name       string
		tail, dist bool
	}{{"exact", false, false}, {"tail", true, false}, {"dist", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = 4
			cfg.DistributionMode = tc.dist
			if tc.tail {
				// Fed sequentially, this stream promotes 3 pairs at 12.
				cfg.MaxPairs = 12
				cfg.TailSketch = TailSketchConfig{Enabled: true, Epsilon: 0.01, Delta: 0.01, TopK: 64}
			}
			e := New(cfg)
			hammerConsumeAndTick(t, e)
			if tc.tail {
				if ts := e.TailStats(); ts.Promotions == 0 {
					t.Errorf("tail variant never promoted: %+v", ts)
				}
			}
		})
	}
}

func hammerConsumeAndTick(t *testing.T, e *Engine) {
	docs := determinismStream()
	items := make([]*stream.Item, len(docs))
	for i := range docs {
		items[i] = docs[i].Item()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, it := range items {
			e.Consume(it)
			if i%100 == 0 && stop.Load() {
				return
			}
		}
	}()

	// Wall-clock ticker: force evaluations at the engine's event clock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if at := e.LastEventTime(); !at.IsZero() {
				// Tick ignores times at or before the newest evaluation, so
				// the returned ranking is at >= the requested time, never
				// rewound behind it.
				r := e.Tick(at)
				if r.At.Before(at) {
					t.Errorf("Tick returned ranking at %v, before requested %v", r.At, at)
					return
				}
			}
		}
	}()

	// Readers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r := e.CurrentRanking()
				for i := 1; i < len(r.Topics); i++ {
					if r.Topics[i].Score > r.Topics[i-1].Score {
						t.Error("published ranking not sorted")
						return
					}
				}
				e.Seeds()
				e.ActivePairs()
				e.TailStats()
				e.DocsProcessed()
				if len(r.Topics) > 0 {
					e.ExpandTopic(r.Topics[0].Pair, 2)
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Second) // the hammer's run length, not a wait for a condition
		close(done)
	}()
	<-done
	stop.Store(true)
	wg.Wait()

	if e.DocsProcessed() == 0 {
		t.Error("no documents consumed")
	}
	if e.CurrentRanking().At.IsZero() {
		t.Error("no ranking produced under concurrency")
	}
}

// Multiple producers must be able to Consume concurrently without racing;
// totals must be conserved.
func TestEngineConcurrentProducers(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := New(cfg)
	docs := determinismStream()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				e.Consume(docs[i].Item())
			}
		}(w)
	}
	wg.Wait()
	e.Flush()
	if got := e.DocsProcessed(); got != int64(len(docs)) {
		t.Errorf("DocsProcessed = %d, want %d", got, len(docs))
	}
	if e.CurrentRanking().At.IsZero() {
		t.Error("no final ranking after concurrent ingest")
	}
}

// Sanity: the shard assignment the engine uses agrees between tracker and
// detector layers (a pair evaluated on worker i must own detector state on
// shard i).
func TestEngineShardAgreement(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		k := pairs.MakeKey("volcano", "airtraffic")
		if s := k.Shard(n); s < 0 || s >= n {
			t.Fatalf("Shard(%d) = %d out of range", n, s)
		}
	}
	e := New(Config{Shards: 3})
	if e.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3", e.Shards())
	}
}
