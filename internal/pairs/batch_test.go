package pairs

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// batchDocsFrom pairs a random tag stream with one-minute-spaced
// timestamps, the shape ObserveBatch consumes.
func batchDocsFrom(stream [][]string) []BatchDoc {
	docs := make([]BatchDoc, len(stream))
	for i, tags := range stream {
		docs[i] = BatchDoc{Time: shT0.Add(time.Duration(i) * time.Minute), Tags: tags}
	}
	return docs
}

// seedEven marks half the vocabulary as seeds so candidate generation
// exercises both accepted and rejected pairs.
func seedEven(tag string) bool {
	var n int
	fmt.Sscanf(tag, "t%d", &n)
	return n%2 == 0
}

// checkBatchesMatchReference feeds docs to the serial reference Tracker one
// document at a time and to a ShardedTracker in batches of every listed
// size, for every listed shard count, both under the candidate predicate
// isSeed (nil tracks every pair), and requires the same tracked pairs
// with the same windowed counts and per-bucket series. The reference shares
// only the tag-set rule (intern.Dedup) with ObserveIDs: one map, no locks,
// no shards, no chunking, its sweep trigger checked after every document.
func checkBatchesMatchReference(t *testing.T, cfg Config, docs []BatchDoc, isSeed func(string) bool) {
	ref := NewTracker(cfg)
	for _, d := range docs {
		ref.Observe(d.Time, d.Tags, isSeed)
	}
	want := sortedKeys(ref.Keys())
	if len(want) == 0 {
		t.Fatal("reference tracker tracked no pairs; workload too small")
	}
	for _, shards := range []int{1, 4, 8} {
		for _, batch := range []int{1, 7, 64, 4096} {
			t.Run(fmt.Sprintf("shards-%d/batch-%d", shards, batch), func(t *testing.T) {
				c := cfg
				c.Shards = shards
				tr := NewShardedTracker(c)
				for lo := 0; lo < len(docs); lo += batch {
					tr.ObserveBatch(docs[lo:min(lo+batch, len(docs))], isSeed)
				}
				if got := tr.ActivePairs(); got != ref.ActivePairs() {
					t.Errorf("ActivePairs = %d, reference %d", got, ref.ActivePairs())
				}
				got := sortedKeys(tr.Keys())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tracked pairs diverge: %d vs %d in the reference", len(got), len(want))
				}
				for _, k := range want {
					if g, w := tr.Cooccurrence(k), ref.Cooccurrence(k); g != w {
						t.Errorf("%v: windowed count %v, reference %v", k, g, w)
					}
					if g, w := shardedSeries(tr, k), ref.Series(k); !reflect.DeepEqual(g, w) {
						t.Errorf("%v: series %v, reference %v", k, g, w)
					}
				}
			})
		}
	}
}

// shardedSeries reads pair k's per-bucket counts, oldest first, from its
// shard's touch lists.
func shardedSeries(tr *ShardedTracker, k Key) []float64 {
	sh := tr.shards[k.Shard(len(tr.shards))]
	slot, _ := sh.table.get(k.packed)
	nb := int64(tr.cfg.Buckets)
	out := make([]float64, nb)
	for p := range out {
		i := sh.wheel.listOf(sh.wheel.head - nb + 1 + int64(p))
		for _, e := range sh.wheel.lists[i] {
			if e.slot == slot {
				out[p] += float64(e.n)
			}
		}
		out[p] += float64(sh.wheel.spill[spot{slot, int32(i)}])
	}
	return out
}

// TestObserveBatchMatchesSerial pins batch-cut invariance against the
// serial reference under the default budget, where no sweep fires.
func TestObserveBatchMatchesSerial(t *testing.T) {
	docs := batchDocsFrom(randomStream(42, 3000, 60, 4))
	checkBatchesMatchReference(t, Config{}, docs, seedEven)
}

// TestObserveBatchMatchesSerialUnderEviction repeats the check with a pair
// budget far below the stream's pair cardinality, so sweeps evict
// continuously and over-budget sweeps cut batches into chunks: the
// survivors (smallest windowed count evicted first, ties broken
// deterministically) must be the reference's, since which pairs survive
// decides which topics can emerge.
func TestObserveBatchMatchesSerialUnderEviction(t *testing.T) {
	docs := batchDocsFrom(randomStream(7, 4000, 120, 5))
	checkBatchesMatchReference(t, Config{MaxPairs: 150}, docs, seedEven)
}

// TestObserveBatchMatchesSerialAllPairs repeats the check with no
// candidate predicate, the configuration of distribution mode's co
// tracker, whose counts are the co-tag distributions: batches of any size
// must leave every tag's distribution as the serial reference's.
func TestObserveBatchMatchesSerialAllPairs(t *testing.T) {
	docs := batchDocsFrom(randomStream(13, 1500, 40, 4))
	checkBatchesMatchReference(t, Config{}, docs, nil)
}
