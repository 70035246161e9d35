package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

// This file checks predicated dispatch against a per-topic reference and
// measures it. Dispatch evaluates a predicate as set operations over the
// tick's rank-position index and shares one payload per distinct view;
// the reference below filters topic by topic, the way dispatch did before
// the index existed, so any disagreement is a bug in the sets, the top-k
// trim, the payload cache, or the entered/left bookkeeping.

// matches is the per-topic reference for matcher.eval: the compiled
// predicate evaluated against one topic.
func (m *matcher) matches(t *shift.Topic) bool {
	if t.Score < m.minScore {
		return false
	}
	if len(m.pendingAll) > 0 {
		// A required tag was never interned, so no pair can contain it.
		return false
	}
	a, b := t.Pair.IDs()
	for _, id := range m.all {
		if id != a && id != b {
			return false
		}
	}
	if len(m.any)+len(m.pendingAny) > 0 {
		ok := false
		for _, id := range m.any {
			if id == a || id == b {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// refSub replays one subscription through the per-topic reference.
type refSub struct {
	m         *matcher
	topK      int
	emergence bool
	last      []topicMark
}

// refDelivery is what the reference expects one tick to deliver.
type refDelivery struct {
	topics        []shift.Topic
	entered, left []pairs.Key
}

// step filters r through the reference and reports the delivery it
// expects, if any.
func (s *refSub) step(r *Ranking) (refDelivery, bool) {
	var view []shift.Topic
	for i := range r.Topics {
		if s.m.matches(&r.Topics[i]) {
			view = append(view, r.Topics[i])
		}
	}
	if s.topK > 0 && len(view) > s.topK {
		view = view[:s.topK]
	}
	same := len(view) == len(s.last)
	for i := 0; same && i < len(view); i++ {
		same = s.last[i].key == view[i].Pair && s.last[i].score == view[i].Score
	}
	if same {
		return refDelivery{}, false
	}
	var d refDelivery
	var entrants []shift.Topic
	for _, t := range view {
		if _, ok := markScore(s.last, t.Pair); !ok {
			d.entered = append(d.entered, t.Pair)
			entrants = append(entrants, t)
		}
	}
	for _, mk := range s.last {
		if !topicsContain(view, mk.key) {
			d.left = append(d.left, mk.key)
		}
	}
	s.last = appendMarks(s.last[:0], view)
	if s.emergence && len(d.entered) == 0 {
		return refDelivery{}, false
	}
	d.topics = view
	if s.emergence {
		d.topics = entrants
	}
	return d, true
}

// fuzzScores are the scores fuzzed rankings draw from: few enough to tie,
// negative ones included (a predicated view drops them even without a
// floor).
var fuzzScores = []float64{-0.5, 0, 0.1, 0.25, 0.5, 1, 2, 4}

// rankOrder sorts topics the way the engine ranks them: by descending
// score, ties by pair. Dispatch relies on it — a view whose topics kept
// their (pair, score) keeps its order.
func rankOrder(topics []shift.Topic) {
	sort.Slice(topics, func(a, b int) bool {
		if topics[a].Score != topics[b].Score {
			return topics[a].Score > topics[b].Score
		}
		return topics[a].Pair.Less(topics[b].Pair)
	})
}

// fuzzRanking draws n distinct pairs over tags with random scores, in
// rank order.
func fuzzRanking(rng *rand.Rand, tags []string, n int, at time.Time) Ranking {
	r := Ranking{At: at, Seeds: []string{"seed"}}
	for _, p := range rng.Perm(len(tags) * (len(tags) - 1) / 2)[:n] {
		// Unrank p into the pair (i, j), i < j.
		i := 0
		for p >= len(tags)-1-i {
			p -= len(tags) - 1 - i
			i++
		}
		r.Topics = append(r.Topics, mkTopic(tags[i], tags[i+1+p], fuzzScores[rng.Intn(len(fuzzScores))]))
	}
	rankOrder(r.Topics)
	return r
}

// nextRanking derives the next tick from prev: unchanged, rescored, with
// topics dropped and added, or drawn afresh at a new size.
func nextRanking(rng *rand.Rand, tags []string, prev Ranking) Ranking {
	at := prev.At.Add(time.Hour)
	switch rng.Intn(4) {
	case 0:
		return Ranking{At: at, Seeds: prev.Seeds, Topics: append([]shift.Topic(nil), prev.Topics...)}
	case 1:
		next := Ranking{At: at, Seeds: prev.Seeds, Topics: append([]shift.Topic(nil), prev.Topics...)}
		for i := range next.Topics {
			if rng.Intn(3) == 0 {
				next.Topics[i].Score = fuzzScores[rng.Intn(len(fuzzScores))]
			}
		}
		rankOrder(next.Topics)
		return next
	case 2:
		next := fuzzRanking(rng, tags, min(130, len(prev.Topics)+rng.Intn(8)), at)
		// Keep most of prev, so views persist across the tick.
		for i := range next.Topics {
			if i < len(prev.Topics) && rng.Intn(4) != 0 {
				next.Topics[i] = prev.Topics[i]
			}
		}
		seen := map[pairs.Key]bool{}
		kept := next.Topics[:0]
		for _, t := range next.Topics {
			if !seen[t.Pair] {
				seen[t.Pair] = true
				kept = append(kept, t)
			}
		}
		next.Topics = kept
		rankOrder(next.Topics)
		return next
	default:
		return fuzzRanking(rng, tags, rng.Intn(131), at)
	}
}

// fuzzPredicate draws a predicate over tags: any-of and all-of terms
// (pending tags among them), a score floor, a top-k, emergence-only.
func fuzzPredicate(rng *rand.Rand, tags []string, id int64) (opts []SubOption, topK int, emergence bool) {
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			if rng.Intn(8) == 0 {
				// Never interned: stays pending for the whole run.
				out[i] = fmt.Sprintf("fz-pending-%d-%d", id, i)
			} else {
				out[i] = tags[rng.Intn(len(tags))]
			}
		}
		return out
	}
	if n := rng.Intn(4); n > 0 {
		opts = append(opts, SubTags(pick(n)...))
	}
	if rng.Intn(4) == 0 {
		opts = append(opts, SubAllTags(pick(1+rng.Intn(2))...))
	}
	if rng.Intn(3) == 0 || len(opts) == 0 {
		opts = append(opts, SubMinScore(fuzzScores[2+rng.Intn(len(fuzzScores)-2)]))
	}
	switch rng.Intn(4) {
	case 0:
		topK = 1 + rng.Intn(4)
	case 1:
		topK = 60 + rng.Intn(10) // crosses the first set word
	}
	if topK > 0 {
		opts = append(opts, SubTopK(topK))
	}
	if emergence = rng.Intn(3) == 0; emergence {
		opts = append(opts, SubEmergenceOnly())
	}
	return opts, topK, emergence
}

// FuzzDispatchView drives a broker through generated ticks — rankings of
// 0–130 topics, across the 64-position word boundary — with generated
// predicates, and requires every delivered view, payload, entered and left
// set to equal the per-topic reference's. Subscribers with the same view
// in a tick must share one payload, and a payload must not change after
// delivery: it is read only after the last tick.
func FuzzDispatchView(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(6))
	f.Add(int64(2), uint8(0), uint8(3))
	f.Add(int64(3), uint8(64), uint8(8))
	f.Add(int64(4), uint8(65), uint8(8))
	f.Add(int64(5), uint8(130), uint8(12))
	f.Add(int64(6), uint8(127), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, ticks uint8) {
		rng := rand.New(rand.NewSource(seed))
		tags := make([]string, 18) // 153 pairs: room for 130 distinct
		for i := range tags {
			tags[i] = fmt.Sprintf("fz-%d", i)
		}
		b := newBroker()
		defer b.close()
		const nsubs = 12
		subs := make([]*Subscription, nsubs)
		refs := make([]*refSub, nsubs)
		var predSeed int64
		for i := range subs {
			if i%4 != 3 {
				// Every fourth subscription repeats its predecessor's
				// predicate, so the two share payloads.
				predSeed = rng.Int63()
			}
			opts, topK, emergence := fuzzPredicate(rand.New(rand.NewSource(predSeed)), tags, predSeed)
			// Drained every tick: room for two shows a double delivery.
			subs[i] = b.subscribe(nil, append(opts, SubBuffer(2))...)
			refs[i] = &refSub{m: subs[i].m, topK: topK, emergence: emergence}
		}
		type check struct {
			n    *Notification
			want refDelivery
			sub  int
			tick int
		}
		var checks []check
		r := fuzzRanking(rng, tags, int(size)%131, t0)
		for tick := 0; tick < int(ticks%16)+1; tick++ {
			if tick > 0 {
				r = nextRanking(rng, tags, r)
			}
			b.deliver(r)
			shared := map[string]*shift.Topic{}
			for i, s := range subs {
				want, ok := refs[i].step(&r)
				var got *Notification
				select {
				case got = <-s.ch:
				default:
				}
				switch {
				case ok && got == nil:
					t.Fatalf("tick %d sub %d: reference delivers %v, dispatch nothing", tick, i, pairList(want.topics))
				case !ok && got != nil:
					t.Fatalf("tick %d sub %d: dispatch delivers %v, reference nothing", tick, i, pairList(got.topics))
				case !ok:
					continue
				}
				if got.owned {
					t.Fatalf("tick %d sub %d: predicated payload is owned, want shared copy-on-read", tick, i)
				}
				if len(got.topics) > 0 {
					key := fmt.Sprint(pairList(got.topics))
					if p, seen := shared[key]; seen && p != &got.topics[0] {
						t.Fatalf("tick %d sub %d: view %s built twice in one tick", tick, i, key)
					}
					shared[key] = &got.topics[0]
				}
				checks = append(checks, check{n: got, want: want, sub: i, tick: tick})
			}
		}
		for _, c := range checks {
			if got := c.n.Topics(); !slices.Equal(got, c.want.topics) {
				t.Fatalf("tick %d sub %d: payload %v, reference %v", c.tick, c.sub, pairList(got), pairList(c.want.topics))
			}
			if got := c.n.Entered(); !slices.Equal(got, c.want.entered) {
				t.Fatalf("tick %d sub %d: entered %v, reference %v", c.tick, c.sub, got, c.want.entered)
			}
			if got := c.n.Left(); !slices.Equal(got, c.want.left) {
				t.Fatalf("tick %d sub %d: left %v, reference %v", c.tick, c.sub, got, c.want.left)
			}
		}
	})
}

func pairList(topics []shift.Topic) []string {
	out := make([]string, len(topics))
	for i, t := range topics {
		out[i] = fmt.Sprintf("%v@%v", t.Pair, t.Score)
	}
	return out
}

// BenchmarkDispatchFanout measures predicated dispatch at the fanout
// workload's shape: 10 000 subscriptions of one to three any-of tags (a
// fifth of them among eight hot tags, every tenth subscription also
// score-floored and emergence-only) over 20-topic rankings in which every
// hot tag's score moves each tick and one hot tag changes partner. It
// reports the dispatch cost per delivered notification; draining the
// subscribers and building the next ranking are not timed.
func BenchmarkDispatchFanout(b *testing.B) {
	const nsubs, vocab, hot = 10000, 500, 8
	e := New(testConfig())
	defer e.Close()
	tags := make([]string, vocab)
	for i := range tags {
		tags[i] = fmt.Sprintf("fan-%d", i)
		pairsMustIntern(tags[i])
	}
	rng := rand.New(rand.NewSource(1))
	subs := make([]*Subscription, nsubs)
	for i := range subs {
		sel := make([]string, 1+rng.Intn(3))
		for j := range sel {
			if rng.Float64() < 0.2 {
				sel[j] = tags[rng.Intn(hot)]
			} else {
				sel[j] = tags[vocab/2+rng.Intn(vocab/2)]
			}
		}
		opts := []SubOption{SubTags(sel...), SubBuffer(1)}
		if i%10 == 9 {
			opts = append(opts, SubMinScore(0.001), SubEmergenceOnly())
		}
		subs[i] = e.Subscribe(nil, opts...)
	}
	// Eight hot topics and twelve steady cold ones, none of whose tags a
	// subscriber names.
	hotTopics := make([]shift.Topic, hot)
	for i := range hotTopics {
		hotTopics[i] = mkTopic(tags[i], tags[hot+i], 1)
	}
	cold := make([]shift.Topic, 12)
	for i := range cold {
		cold[i] = mkTopic(tags[3*hot+2*i], tags[3*hot+2*i+1], 0.5)
	}
	r := Ranking{At: t0, Seeds: []string{"seed"}}
	step := func(k int) {
		r.At = r.At.Add(time.Minute)
		j, partner := k%hot, hot+k%hot
		if k/hot%2 == 1 {
			partner += hot
		}
		hotTopics[j].Pair = pairs.MakeKey(tags[j], tags[partner])
		for i := range hotTopics {
			hotTopics[i].Score = 1 + rng.Float64()
		}
		r.Topics = append(append(r.Topics[:0], hotTopics...), cold...)
		rankOrder(r.Topics)
	}
	drain := func() {
		for _, s := range subs {
			select {
			case <-s.ch:
			default:
			}
		}
	}
	for k := 0; k < 3; k++ {
		step(k)
		e.PublishRanking(r)
		drain()
	}
	var ms runtime.MemStats
	var notifs int64
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step(i + 3)
		drain()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		b.StartTimer()
		e.PublishRanking(r)
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		notifs += e.MatchedLastTick()
		b.StartTimer()
	}
	b.StopTimer()
	notifs = max(notifs, 1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(notifs), "ns/notif")
	b.ReportMetric(float64(mallocs)/float64(notifs), "allocs/notif")
	b.ReportMetric(float64(notifs)/float64(b.N), "notifs/tick")
}
