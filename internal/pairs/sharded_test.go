package pairs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

var shT0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// randomStream generates a reproducible tag stream with enough cardinality
// to exercise sweeps and eviction.
func randomStream(seed int64, docs, vocab, maxTags int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, docs)
	for i := range out {
		n := 2 + rng.Intn(maxTags-1)
		tags := make([]string, n)
		for j := range tags {
			tags[j] = fmt.Sprintf("t%d", rng.Intn(vocab))
		}
		out[i] = tags
	}
	return out
}

func sortedKeys(keys []Key) []Key {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tag1() != keys[j].Tag1() {
			return keys[i].Tag1() < keys[j].Tag1()
		}
		return keys[i].Tag2() < keys[j].Tag2()
	})
	return keys
}

func TestKeyShardStableAndInRange(t *testing.T) {
	k := MakeKey("volcano", "iceland")
	if k.Shard(1) != 0 {
		t.Errorf("Shard(1) = %d, want 0", k.Shard(1))
	}
	for _, n := range []int{2, 4, 8, 16} {
		s := k.Shard(n)
		if s < 0 || s >= n {
			t.Errorf("Shard(%d) = %d out of range", n, s)
		}
		if again := k.Shard(n); again != s {
			t.Errorf("Shard(%d) unstable: %d then %d", n, s, again)
		}
	}
	// Canonicalised keys shard identically regardless of argument order.
	if MakeKey("a", "b").Shard(8) != MakeKey("b", "a").Shard(8) {
		t.Error("shard differs for swapped tag order")
	}
}

func TestKeyShardSpreads(t *testing.T) {
	const n = 8
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		k := MakeKey(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		seen[k.Shard(n)]++
	}
	for s := 0; s < n; s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d never hit over 1000 keys", s)
		}
	}
}

// The sharded tracker must hold exactly the serial tracker's state at every
// point of a sequential stream, for any shard count — including through
// zero-eviction sweeps and over-budget eviction.
func TestShardedTrackerMatchesSerial(t *testing.T) {
	stream := randomStream(7, 4000, 60, 5)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := Config{
				Buckets: 12, Resolution: time.Hour,
				MaxPairs: 300, SweepEvery: 128,
			}
			serial := NewTracker(cfg)
			cfg.Shards = shards
			sharded := NewShardedTracker(cfg)
			isSeed := func(tag string) bool { return tag[len(tag)-1]%2 == 0 }

			for i, tags := range stream {
				at := shT0.Add(time.Duration(i) * 5 * time.Minute)
				serial.Observe(at, tags, isSeed)
				sharded.observe(at, tags, isSeed)
				if i%500 != 0 {
					continue
				}
				if got, want := sharded.ActivePairs(), serial.ActivePairs(); got != want {
					t.Fatalf("doc %d: ActivePairs = %d, want %d", i, got, want)
				}
			}
			sk, gk := sortedKeys(serial.Keys()), sortedKeys(sharded.Keys())
			if len(sk) != len(gk) {
				t.Fatalf("key count %d vs serial %d", len(gk), len(sk))
			}
			for i := range sk {
				if sk[i] != gk[i] {
					t.Fatalf("key %d: %v vs serial %v", i, gk[i], sk[i])
				}
				if got, want := sharded.Cooccurrence(sk[i]), serial.Cooccurrence(sk[i]); got != want {
					t.Errorf("cooccurrence %v: %v vs serial %v", sk[i], got, want)
				}
			}
		})
	}
}

func TestShardedTrackerMaxPairsBudget(t *testing.T) {
	cfg := Config{Buckets: 4, Resolution: time.Hour, MaxPairs: 50, Shards: 4}
	tr := NewShardedTracker(cfg)
	// One wide doc generates ~45 pairs; several in the same bucket overflow
	// the budget and must be cut back to MaxPairs by the immediate sweep.
	for d := 0; d < 20; d++ {
		tags := make([]string, 10)
		for i := range tags {
			tags[i] = fmt.Sprintf("w%d-%d", d, i)
		}
		tr.observe(shT0.Add(time.Duration(d)*time.Minute), tags, nil)
		if got := tr.ActivePairs(); got > cfg.MaxPairs {
			t.Fatalf("doc %d: ActivePairs = %d exceeds budget %d", d, got, cfg.MaxPairs)
		}
	}
}

// AppendSnapshot must agree with Cooccurrence and cover each shard disjointly.
func TestShardedTrackerSnapshot(t *testing.T) {
	tr := NewShardedTracker(Config{Buckets: 6, Resolution: time.Hour, Shards: 4})
	stream := randomStream(11, 500, 30, 4)
	for i, tags := range stream {
		tr.observe(shT0.Add(time.Duration(i)*time.Minute), tags, nil)
	}
	total := 0
	for i := 0; i < tr.Shards(); i++ {
		for _, pc := range tr.AppendSnapshot(i, nil) {
			total++
			if pc.Key.Shard(tr.Shards()) != i {
				t.Errorf("pair %v in snapshot of wrong shard %d", pc.Key, i)
			}
			if got := tr.Cooccurrence(pc.Key); got != pc.Count {
				t.Errorf("pair %v: snapshot %v vs Cooccurrence %v", pc.Key, pc.Count, got)
			}
		}
	}
	if total != tr.ActivePairs() {
		t.Errorf("snapshots cover %d pairs, ActivePairs = %d", total, tr.ActivePairs())
	}
}
