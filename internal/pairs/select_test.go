package pairs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"enblogue/internal/tier"
)

// fuzzTags is the adversarial vocabulary of FuzzSweepMatchesSerial: bytes
// below and just above the '+' separator, tags sharing eight or more
// leading bytes, tags that are prefixes of others, and multi-byte UTF-8 —
// every way an eight-byte rendered prefix can tie or mislead.
var fuzzTags = []string{
	"a", "a!", "a,", "a+", "a+b", "!", ",", "b", "a0", "a\x01", "\x01",
	"abcdefg", "abcdefgh", "abcdefgh!", "abcdefghi", "abcdefgh+", "abcdefghij",
	"é", "éé", "e\u0301", "日本", "日本語", "日本語の",
}

// evictLog records an eviction observer's (key, count) sequence.
type evictLog struct {
	keys   []Key
	counts []float64
}

func (l *evictLog) observe(k Key, c float64) {
	l.keys = append(l.keys, k)
	l.counts = append(l.counts, c)
}

// FuzzSweepMatchesSerial drives generated documents under MaxPairs
// pressure through the serial reference Tracker and through ShardedTracker
// at 1, 2 and 8 shards, and requires every tracker to evict the same
// victims, in the same order, with the same counts — and the sharded
// trackers' admission floor to be the last victim's count. The documents
// mostly carry fresh pairs, so nearly every victim ties at count 1 and the
// order is decided by the rendered keys of fuzzTags.
func FuzzSweepMatchesSerial(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789!+,"))
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 100*seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cfg := Config{Buckets: 4, Resolution: time.Hour, MaxPairs: 4 + int(data[0]%24)}
		// Each document draws 2–4 tags; a tag is a vocabulary entry with an
		// optional one-digit suffix, so pairs repeat rarely. A high byte
		// advances the clock a bucket, so windows also empty.
		var docs []BatchDoc
		at := shT0
		for i := 1; i+1 < len(data); {
			if data[i] >= 240 {
				at = at.Add(time.Hour)
				i++
				continue
			}
			n := 2 + int(data[i]%3)
			i++
			tags := make([]string, 0, n)
			for ; n > 0 && i < len(data); n-- {
				b := data[i]
				i++
				tag := fuzzTags[int(b)%len(fuzzTags)]
				if b >= 128 {
					tag += fmt.Sprint(b % 10)
				}
				tags = append(tags, tag)
			}
			docs = append(docs, BatchDoc{Time: at, Tags: tags})
		}

		var want evictLog
		ref := NewTracker(cfg)
		ref.SetOnEvict(want.observe)
		for _, d := range docs {
			ref.Observe(d.Time, d.Tags, nil)
		}
		var floor float64
		if n := len(want.counts); n > 0 {
			floor = want.counts[n-1]
		}
		for _, shards := range []int{1, 2, 8} {
			c := cfg
			c.Shards = shards
			tr := NewShardedTracker(c)
			var got evictLog
			tr.SetOnEvict(got.observe)
			for _, d := range docs {
				tr.ObserveBatch([]BatchDoc{d}, nil)
			}
			if len(got.keys) != len(want.keys) {
				t.Fatalf("shards %d: %d evictions, reference %d", shards, len(got.keys), len(want.keys))
			}
			for i := range want.keys {
				if got.keys[i] != want.keys[i] || got.counts[i] != want.counts[i] {
					t.Fatalf("shards %d: eviction %d is %v (count %v), reference %v (count %v)",
						shards, i, got.keys[i], got.counts[i], want.keys[i], want.counts[i])
				}
			}
			if tr.floor != floor {
				t.Fatalf("shards %d: admission floor %v, reference %v", shards, tr.floor, floor)
			}
		}
	})
}

// PromoteTail must promote the candidates a full sort by (−estimate,
// rendered key) ranks first, in that order, capped at the headroom — with
// many estimates tied and many keys tied on their rendered prefix.
func TestPromoteTailMatchesFullSort(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			tr := NewShardedTracker(Config{
				Buckets: 8, Resolution: time.Hour,
				MaxPairs: 100, Shards: shards,
				Tail: &tier.Config{Epsilon: 0.0001, Delta: 0.001, TopK: 256},
			})
			rng := rand.New(rand.NewSource(3))
			observe := func(prefix string, i, times int) {
				tags := []string{fuzzTags[i%len(fuzzTags)] + prefix, fmt.Sprintf("%s%03d", prefix, i)}
				for ; times > 0; times-- {
					tr.observe(shT0, tags, nil)
				}
			}
			// Pairs observed 2–4 times, then crowded out by pairs observed
			// 5 times: the tail holds hundreds of pairs with tied
			// estimates. A last round of singletons sets the floor to 1.
			for i := 0; i < 300; i++ {
				observe("abcdefgh", i, 2+rng.Intn(3))
			}
			for i := 0; i < 100; i++ {
				observe("heavy", i, 5)
			}
			for i := 0; i < 40; i++ {
				observe("single", i, 1)
			}
			if tr.floor != 1 {
				t.Fatalf("admission floor %v, want 1", tr.floor)
			}
			headroom := tr.cfg.MaxPairs - tr.ActivePairs()
			var want []tier.Candidate
			for _, tl := range tr.tails {
				want = tl.AppendCandidates(tr.nowNano, uint64(tr.floor), want)
			}
			if len(want) <= headroom {
				t.Fatalf("%d candidates for headroom %d: selection not exercised", len(want), headroom)
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Est != want[j].Est {
					return want[i].Est > want[j].Est
				}
				return Key{packed: want[i].Key}.Less(Key{packed: want[j].Key})
			})
			want = want[:headroom]

			if got := tr.PromoteTail(shT0); got != headroom {
				t.Fatalf("promoted %d pairs, want the headroom %d", got, headroom)
			}
			for i, w := range want {
				r := tr.ranked[i]
				if r.key.packed != w.Key || uint64(-r.count) != w.Est {
					t.Fatalf("promotion %d: %v (est %v), full sort has %v (est %d)",
						i, r.key, -r.count, Key{packed: w.Key}, w.Est)
				}
				if got := tr.Cooccurrence(r.key); got < float64(w.Est) {
					t.Fatalf("promoted %v holds %v, want at least its estimate %d", r.key, got, w.Est)
				}
			}
		})
	}
}

// BenchmarkSweepOverBudget times one over-budget sweep of a churn-shaped
// tracker: 5,001 pairs over a 5,000-pair budget on 2 shards with the tail
// tier on, pair tags drawn Zipf-skewed from a 200k vocabulary so rendered
// keys often share their leading tag, counts mostly 1 with a heavy tail.
// Each sweep evicts ~500 pairs; the untimed refill between sweeps inserts
// as many fresh count-1 pairs.
func BenchmarkSweepOverBudget(b *testing.B) {
	const budget = 5000
	tr := NewShardedTracker(Config{
		Buckets: 48, Resolution: time.Hour,
		MaxPairs: budget, Shards: 2,
		Tail: &tier.Config{Epsilon: 0.0001, Delta: 0.01, TopK: 512},
	})
	tr.nowNano = shT0.UnixNano()
	abs := tr.shards[0].arena.BucketIndex(shT0)
	rng := rand.New(rand.NewSource(1))
	tagZipf := rand.NewZipf(rng, 1.01, 1, 199999)
	countZipf := rand.NewZipf(rng, 2, 1, 200)
	fill := func(count func() float64) {
		for tr.ActivePairs() <= budget {
			a, c := tagZipf.Uint64(), tagZipf.Uint64()
			if a == c {
				continue
			}
			k := MakeKey(fmt.Sprintf("t%06d", a), fmt.Sprintf("t%06d", c))
			sh := tr.shards[k.Shard(len(tr.shards))]
			if _, ok := sh.table.get(k.packed); ok {
				continue
			}
			sh.arena.AddAbs(tr.upsert(sh, k), abs, count())
		}
	}
	fill(func() float64 { return float64(countZipf.Uint64() + 1) })
	tr.sweep() // grow the ranking buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill(func() float64 { return 1 })
		b.StartTimer()
		tr.sweep()
	}
}
