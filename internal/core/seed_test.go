package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
)

// While no tag has SeedMinCount windowed documents the seed set stays
// empty, and reselecting it must not cost a walk over every active tag per
// document: the bootstrap walks once at the warm-up document and then only
// at a document one of whose tags reaches SeedMinCount.

// TestEmptySeedSetWalksOncePerTick feeds documents of two fresh tags each,
// so no tag ever qualifies as a seed, and counts the walks over all active
// tags: one at the warm-up document, at most one per tick.
func TestEmptySeedSetWalksOncePerTick(t *testing.T) {
	const n = 20000
	m := newMachine(Config{}.normalize(), forEachShard)
	base := time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
	items := make([]*stream.Item, n)
	for i := range items {
		items[i] = &stream.Item{
			Time: base.Add(time.Duration(i) * time.Second),
			Tags: []string{fmt.Sprintf("once-a-%d", i), fmt.Sprintf("once-b-%d", i)},
		}
	}
	ticks := int64(0)
	for lo := 0; lo < n; lo += 1000 {
		m.consume(items[lo:lo+1000], func(Ranking) { ticks++ })
	}
	if len(m.seeds.Seeds()) != 0 {
		t.Fatalf("one-off tags produced seeds %v", m.seeds.Seeds())
	}
	if ticks == 0 {
		t.Fatal("no tick fired; the per-tick bound would test nothing")
	}
	if m.tagWalks > 1+ticks {
		t.Fatalf("%d walks over the active tags for %d documents and %d ticks, want at most %d",
			m.tagWalks, n, ticks, 1+ticks)
	}
}

// TestFirstSeedSetMatchesTopOracle checks that the bootstrap finds the
// first non-empty seed set at the same document, with the same tags, as
// reselecting through Top after every document from the warm-up on.
// Streams are random over a skewed vocabulary, some with gaps long enough
// for windowed counts to expire, under every selection criterion, and stay
// inside one tick period, so only the bootstrap selects.
func TestFirstSeedSetMatchesTopOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cfg := Config{
				WindowBuckets: 6, WindowResolution: time.Hour, TickEvery: 10000 * time.Hour,
				SeedCount: 5, SeedWarmupDocs: 1 + int(seed%7)*150, Shards: 2,
				SeedCriterion: tagstats.Criterion(seed % 3),
			}.normalize()
			rng := seed * 0x9E3779B97F4A7C15
			next := func(k uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % k
			}
			// Odd seeds spread documents so counts expire; even ones pack
			// them, so a tag qualifies before the warm-up ends.
			maxGap := []uint64{2, 90}[seed%2]
			m := newMachine(cfg, forEachShard)
			oracle := tagstats.NewTracker(tagstats.Config{Buckets: cfg.WindowBuckets, Resolution: cfg.WindowResolution})
			at := time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
			for doc := 1; doc <= 4000; doc++ {
				at = at.Add(time.Duration(next(maxGap)) * time.Minute)
				// Tag v with weight about 1/(v+1) among 400 tags.
				tags := []string{fmt.Sprintf("s%d-t%d", seed, next(1+next(400)))}
				if next(2) == 0 {
					tags = append(tags, fmt.Sprintf("s%d-t%d", seed, next(1+next(400))))
				}
				it := &stream.Item{Time: at, Tags: tags}
				m.consume([]*stream.Item{it}, func(Ranking) { t.Fatal("unexpected tick") })
				oracle.Observe(at, tags)

				var want []string
				if doc >= cfg.SeedWarmupDocs {
					for _, s := range oracle.Top(cfg.SeedCount, cfg.SeedCriterion, cfg.SeedMinCount) {
						want = append(want, s.Tag)
					}
				}
				got := m.seeds.Seeds()
				if !slices.Equal(got, want) {
					t.Fatalf("after document %d: seeds %v, oracle %v", doc, got, want)
				}
				if len(want) > 0 {
					return
				}
			}
			t.Fatal("no seed set appeared; the case would test nothing")
		})
	}
}
