// Acceptance tests for the tiered memory model's determinism contract:
// with the sketch tail disabled (the default), rankings are bit-identical
// across shard counts on both bundled scenarios even under eviction
// pressure — the tier's eviction-path changes (victim collection, the
// admission floor) must be invisible — and an enabled but unpressured tail
// is inert.
package enblogue_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"enblogue"
)

// runRankings feeds items through a fresh engine and returns every
// broadcast ranking plus the engine for post-run inspection.
func runRankings(t *testing.T, items enblogue.Items, opts ...enblogue.Option) ([]enblogue.Ranking, *enblogue.Engine) {
	t.Helper()
	engine := enblogue.New(opts...)
	sub := engine.Subscribe(context.Background(), enblogue.SubBuffer(1<<14))
	if err := engine.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	engine.Close()
	var got []enblogue.Ranking
	for rn := range sub.Notifications() {
		got = append(got, rn.Ranking())
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d rankings with a huge buffer", sub.Dropped())
	}
	if len(got) == 0 {
		t.Fatal("no rankings delivered")
	}
	return got, engine
}

func mustEqualRankings(t *testing.T, label string, got, want []enblogue.Ranking) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ticks vs reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: tick %d differs from reference:\n%+v\nvs\n%+v", label, i, got[i], want[i])
		}
	}
}

func TestTailDisabledRankingsBitIdentical(t *testing.T) {
	tweets, _ := enblogue.TweetScenario(12 * time.Hour)
	archive, _ := enblogue.ArchiveScenario(time.Date(2007, 8, 1, 0, 0, 0, 0, time.UTC), 5)
	scenarios := []struct {
		name     string
		items    enblogue.Items
		maxPairs int
		// The tweet workload holds ~1650 windowed pairs, so a 300-pair cap
		// keeps the eviction path hot; the archive runs uncapped for the
		// no-pressure shape and at a 100-pair cap for eviction, where the
		// shard-local admission floor prunes different pairs at every
		// shard count.
		wantEvictions bool
	}{
		{"tweets", tweets, 300, true},
		{"archive", archive, 0, false},
		{"archive-evicting", archive, 100, true},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var reference []enblogue.Ranking
			for _, shards := range []int{1, 2, 8} {
				opts := []enblogue.Option{
					enblogue.WithWindow(12, time.Hour),
					enblogue.WithSeedCount(10),
					enblogue.WithSeedWarmup(20),
					enblogue.WithMaxPairs(sc.maxPairs),
					enblogue.WithTopK(10),
					enblogue.WithShards(shards),
				}
				got, engine := runRankings(t, sc.items, opts...)
				ts := engine.TailStats()
				if ts.Enabled || ts.TailPairs != 0 || ts.Promotions != 0 || ts.ApproxSeededPairs != 0 {
					t.Fatalf("shards=%d: tier state without WithTailSketch: %+v", shards, ts)
				}
				var evicted, demoted int64
				for i := range ts.EvictedByShard {
					evicted += ts.EvictedByShard[i]
					demoted += ts.DemotedByShard[i]
				}
				if sc.wantEvictions && evicted == 0 {
					t.Fatalf("shards=%d: no evictions — the cap is not exercising the tier seam", shards)
				}
				if demoted != 0 {
					t.Fatalf("shards=%d: %d demotions with the tail disabled", shards, demoted)
				}
				if reference == nil {
					reference = got
					continue
				}
				mustEqualRankings(t, sc.name, got, reference)
			}
		})
	}
}

// An enabled tail under no eviction pressure must change nothing: no pair
// is ever demoted, so promotion never fires and rankings stay bit-identical
// to the default engine's.
func TestTailSketchInertWithoutEvictionPressure(t *testing.T) {
	tweets, _ := enblogue.TweetScenario(12 * time.Hour)
	base := []enblogue.Option{
		enblogue.WithWindow(12, time.Hour),
		enblogue.WithSeedCount(10),
		enblogue.WithSeedWarmup(20),
		enblogue.WithTopK(10),
		enblogue.WithShards(4),
	}
	want, _ := runRankings(t, tweets, base...)
	got, engine := runRankings(t, tweets,
		append(base, enblogue.WithTailSketch(0.01, 0.01, 256))...)

	ts := engine.TailStats()
	if !ts.Enabled {
		t.Fatal("WithTailSketch did not enable the tier")
	}
	if ts.TailPairs != 0 || ts.Promotions != 0 || ts.ApproxSeededPairs != 0 {
		t.Fatalf("unpressured tail absorbed state: %+v", ts)
	}
	mustEqualRankings(t, "tail-enabled-unpressured", got, want)
}
