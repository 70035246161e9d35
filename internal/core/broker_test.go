package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/persona"
	"enblogue/internal/source"
)

// brokerStream is a small workload with enough ticks and topics for
// subscription tests.
func brokerStream() []source.Document {
	docs := background(t0, 8, 30)
	id := 0
	for h := 4; h < 7; h++ {
		for i := 0; i < 10; i++ {
			docs = append(docs, source.Document{
				Time: t0.Add(time.Duration(h)*time.Hour + time.Duration(i*5)*time.Minute),
				ID:   ids("ev", &id),
				Tags: []string{"politics", "scandal"},
			})
		}
	}
	source.SortDocs(docs)
	return docs
}

// The broadcast subscription must deliver every tick, in order, and its
// final ranking must be bit-identical to CurrentRanking — for every shard
// count.
func TestBrokerBroadcastMatchesCurrentRanking(t *testing.T) {
	docs := brokerStream()
	var reference []Ranking
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := testConfig()
		cfg.Shards = shards
		e := New(cfg)
		sub := e.Subscribe(context.Background(), SubBuffer(1024))
		feedDocs(e, docs)
		e.Close()

		var got []Ranking
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			got = append(got, r)
		}
		if len(got) == 0 {
			t.Fatalf("shards=%d: no rankings delivered", shards)
		}
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("shards=%d: %d rankings dropped with a huge buffer", shards, d)
		}
		cur := e.CurrentRanking()
		rankingsEqual(t, fmt.Sprintf("shards-%d broadcast-vs-current", shards),
			[]Ranking{got[len(got)-1]}, []Ranking{cur})
		if reference == nil {
			reference = got
		} else {
			rankingsEqual(t, fmt.Sprintf("shards-%d broadcast-vs-serial", shards), reference, got)
		}
	}
}

// Sinks run on the dispatcher: when Flush returns, every sink has seen
// every tick up to the final one, in tick order and with no drop, the
// sinks of one tick in subscription order; Close closes a sink's channel.
func TestBrokerSinksRunBeforeFlushReturns(t *testing.T) {
	e := New(testConfig())
	ref := e.Subscribe(context.Background(), SubBuffer(1024))
	var order []int
	var got []time.Time
	sinks := make([]*Subscription, 3)
	for i := range sinks {
		sinks[i] = e.Subscribe(context.Background(), SubSink(func(n *Notification) {
			order = append(order, i)
			if i == 0 {
				got = append(got, n.At())
			}
		}))
	}
	feedDocs(e, brokerStream())
	// No lock: Flush is the happens-before edge, and -race checks it.
	if len(got) == 0 || !got[len(got)-1].Equal(e.CurrentRanking().At) {
		t.Fatalf("sink saw %d ticks, the last at %v; want the final tick %v", len(got), got, e.CurrentRanking().At)
	}
	for j, i := range order {
		if i != j%len(sinks) {
			t.Fatalf("sink call %d went to sink %d, want %d: %v", j, i, j%len(sinks), order)
		}
	}
	e.Close()
	var want []time.Time
	for n := range ref.Notifications() {
		want = append(want, n.At())
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d ticks, a channel subscriber %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("sink tick %d at %v, channel subscriber's at %v", i, got[i], want[i])
		}
	}
	for _, s := range sinks {
		if s.Dropped() != 0 {
			t.Errorf("sink dropped %d", s.Dropped())
		}
		if _, ok := <-s.Notifications(); ok {
			t.Error("sink channel delivered a notification")
		}
	}
}

// Many subscribers — some with personas — consume concurrently while
// multiple producers ingest. Run under -race; assertions are sanity, the
// race detector is the real test.
func TestBrokerManyConcurrentSubscribersDuringIngest(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := New(cfg)
	docs := brokerStream()

	const nSubs = 12
	var wg sync.WaitGroup
	received := make([]int, nSubs)
	for i := 0; i < nSubs; i++ {
		opts := []SubOption{SubBuffer(4)}
		if i%3 == 1 {
			opts = append(opts, SubProfile(&persona.Profile{
				Name: fmt.Sprintf("u%d", i), Keywords: []string{"scandal"},
			}))
		}
		if i%3 == 2 {
			opts = append(opts, SubTopK(3))
		}
		sub := e.Subscribe(context.Background(), opts...)
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			for rn := range sub.Notifications() {
				r := rn.Ranking()
				received[i]++
				for j := 1; j < len(r.Topics); j++ {
					if r.Topics[j].Score > r.Topics[j-1].Score {
						t.Errorf("sub %d: unsorted delivery", i)
						return
					}
				}
				if i%3 == 2 && len(r.Topics) > 3 {
					t.Errorf("sub %d: top-k not trimmed: %d topics", i, len(r.Topics))
					return
				}
				// Call back into the engine from the consumer side.
				e.CurrentRanking()
				e.Seeds()
			}
		}(i, sub)
	}

	const producers = 4
	var pw sync.WaitGroup
	for w := 0; w < producers; w++ {
		pw.Add(1)
		go func(w int) {
			defer pw.Done()
			for i := w; i < len(docs); i += producers {
				e.Consume(docs[i].Item())
			}
		}(w)
	}
	pw.Wait()
	e.Flush()
	e.Close()
	wg.Wait()

	for i, n := range received {
		if n == 0 {
			t.Errorf("subscriber %d received nothing", i)
		}
	}
	if e.Subscribers() != 0 {
		t.Errorf("Subscribers = %d after Close", e.Subscribers())
	}
}

// A slow subscriber must lose the oldest rankings first, with the drops
// observable, and still converge on the newest state.
func TestBrokerSlowSubscriberDropsOldest(t *testing.T) {
	e := New(testConfig())
	sub := e.Subscribe(context.Background(), SubBuffer(2))
	// Never consume while 30 hourly ticks fire.
	feedDocs(e, background(t0, 30, 25))
	e.Close()

	var got []Ranking
	for rn := range sub.Notifications() {
		r := rn.Ranking()
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("buffered %d rankings, want exactly the buffer size 2", len(got))
	}
	if sub.Dropped() == 0 {
		t.Fatal("drop counter stayed zero for a stalled subscriber")
	}
	if e.RankingsDropped() != sub.Dropped() {
		t.Errorf("engine total drops %d != subscription drops %d",
			e.RankingsDropped(), sub.Dropped())
	}
	// Drop-oldest: the retained frames are the newest, ending at the
	// engine's current state.
	cur := e.CurrentRanking()
	if !got[len(got)-1].At.Equal(cur.At) {
		t.Errorf("last buffered ranking at %v, current is %v", got[len(got)-1].At, cur.At)
	}
	if !got[0].At.Before(got[1].At) {
		t.Errorf("buffered rankings out of order: %v then %v", got[0].At, got[1].At)
	}
}

// Cancelling the subscription context must close the channel and detach
// the subscriber.
func TestBrokerContextCancellation(t *testing.T) {
	e := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	sub := e.Subscribe(ctx, SubBuffer(8))
	if e.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d, want 1", e.Subscribers())
	}
	feedDocs(e, background(t0, 3, 25))
	cancel()
	// context.AfterFunc closes the subscription on a goroutine of its own,
	// so this is a failure bound: draining must end, not block forever.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Notifications():
			if !ok {
				if e.Subscribers() != 0 {
					t.Errorf("Subscribers = %d after cancel", e.Subscribers())
				}
				return
			}
		case <-deadline:
			t.Fatal("subscription channel not closed after context cancel")
		}
	}
}

// A persona subscription's view must match persona.Rerank over the same
// broadcast topics: same pairs, same weighted scores, same order.
func TestBrokerPersonaViewMatchesRegistryRerank(t *testing.T) {
	profile := &persona.Profile{Name: "watcher", Keywords: []string{"scandal"}, Boost: 5}
	e := New(testConfig())
	sub := e.Subscribe(context.Background(), SubProfile(profile), SubBuffer(1024))
	feedDocs(e, brokerStream())
	e.Close()

	var last Ranking
	n := 0
	for rn := range sub.Notifications() {
		r := rn.Ranking()
		last = r
		n++
	}
	if n == 0 {
		t.Fatal("no personalized rankings delivered")
	}
	cur := e.CurrentRanking()
	var topics []persona.Topic
	for _, tp := range cur.Topics {
		topics = append(topics, persona.Topic{Pair: tp.Pair, Score: tp.Score})
	}
	want := persona.Rerank(topics, profile)
	if len(want) != len(last.Topics) {
		t.Fatalf("persona view has %d topics, registry rerank %d", len(last.Topics), len(want))
	}
	for i := range want {
		got := last.Topics[i]
		if got.Pair != want[i].Pair || got.Score != want[i].Score {
			t.Errorf("rank %d: broker (%v, %v) vs registry (%v, %v)",
				i, got.Pair, got.Score, want[i].Pair, want[i].Score)
		}
	}
	// The boost must actually have applied to matching topics.
	boosted := false
	for _, tp := range last.Topics {
		if profile.Matches(tp.Pair) > 0 {
			boosted = true
		}
	}
	if !boosted {
		t.Error("persona view contains no matching topic; workload too weak")
	}
}

// A subscription consumer runs on its own goroutine, outside every engine
// lock, so it may call back into the engine freely — the documented
// contrast with the old in-tick callback design.
func TestSubscriberMayReenterEngine(t *testing.T) {
	e := New(testConfig())
	sub := e.Subscribe(context.Background(), SubBuffer(1<<12))
	var seen []time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			// Previously: deadlock (tick lock held). Now: consumer side.
			e.CurrentRanking()
			e.Seeds()
			e.ActivePairs()
			e.Tick(r.At) // no-op rewind, but takes the tick lock
			seen = append(seen, r.At)
		}
	}()
	feedDocs(e, background(t0, 4, 25))
	e.Flush()
	sub.Close()
	<-done
	if len(seen) == 0 {
		t.Fatal("subscription never fired")
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i].After(seen[i-1]) {
			t.Errorf("deliveries out of tick order: %v then %v", seen[i-1], seen[i])
		}
	}
}

// Mutating a returned ranking must not corrupt the engine's stored state
// or sibling subscribers (defensive copies everywhere).
func TestRankingAccessorsReturnDefensiveCopies(t *testing.T) {
	e := New(testConfig())
	sub := e.Subscribe(context.Background(), SubBuffer(1024))
	feedDocs(e, brokerStream())
	e.Close()

	r1 := e.CurrentRanking()
	if len(r1.Topics) == 0 || len(r1.Seeds) == 0 {
		t.Fatal("workload produced no topics/seeds")
	}
	origPair := r1.Topics[0].Pair
	r1.Seeds[0] = "corrupted"
	r1.Topics[0].Score = -1
	r1.Topics[0].Pair = pairs.MakeKey("corrupted", "pair")

	r2 := e.CurrentRanking()
	if r2.Seeds[0] == "corrupted" || r2.Topics[0].Score == -1 || r2.Topics[0].Pair != origPair {
		t.Fatal("CurrentRanking aliases engine state")
	}
	seeds := e.Seeds()
	seeds[0] = "corrupted"
	if e.Seeds()[0] == "corrupted" {
		t.Fatal("Seeds aliases selector state")
	}

	// Subscriber frames are independent copies too.
	var last Ranking
	for rn := range sub.Notifications() {
		r := rn.Ranking()
		last = r
	}
	last.Topics[0].Score = -2
	if e.CurrentRanking().Topics[0].Score == -2 {
		t.Fatal("subscription delivery aliases engine state")
	}
}

// Close must be idempotent and leave late subscribers with an
// already-closed channel instead of a leak.
func TestBrokerCloseIdempotentAndLateSubscribe(t *testing.T) {
	e := New(testConfig())
	feedDocs(e, background(t0, 2, 25))
	e.Close()
	e.Close() // second close must not panic or deadlock

	sub := e.Subscribe(context.Background())
	select {
	case _, ok := <-sub.Notifications():
		if ok {
			t.Fatal("late subscription received a ranking from a closed broker")
		}
	default: // Subscribe on a closed broker returns the channel closed
		t.Fatal("late subscription channel not closed")
	}
	sub.Close() // closing an already-detached subscription must be safe
}
