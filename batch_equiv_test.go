package enblogue_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"enblogue"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

// This file holds the batched-ingest determinism acceptance tests: the
// engine promises rankings bit-identical between per-document Consume and
// every batched path (ConsumeBatch at any batch size, Run's internal
// batching), for any shard count. These tests pin
// that promise across two workload shapes — a short synthetic tweet
// stream with scripted happenings and a multi-day archive replay — and a
// matrix of shard counts and batch sizes, including batches that split
// mid-tick and a batch larger than the whole stream.

// equivWorkloads builds the two acceptance workloads, sized so the full
// matrix stays fast: a few thousand documents spanning enough event time
// to fire dozens of evaluation ticks each.
func equivWorkloads(t testing.TB) map[string][]*stream.Item {
	t.Helper()
	toItems := func(docs []source.Document) []*stream.Item {
		items := make([]*stream.Item, len(docs))
		for i := range docs {
			items[i] = docs[i].Item()
		}
		return items
	}
	tweets := source.GenerateTweets(source.TweetConfig{
		Seed: 7, Span: 6 * time.Hour, TweetsPerMinute: 8,
	})
	archive := source.GenerateArchive(source.ArchiveConfig{
		Seed: 99, Start: time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC),
		Days: 4, DocsPerDay: 500,
	})
	return map[string][]*stream.Item{
		"tweets":  toItems(tweets),
		"archive": toItems(archive),
	}
}

// rankingRecorder collects every published tick from a subscription,
// drained on a dedicated goroutine so even the slowest matrix cell never
// sheds a frame. wait — called after Engine.Close has closed the
// subscription channel — joins the drainer, establishing the
// happens-before edge that makes got safe to read.
type rankingRecorder struct {
	got  []enblogue.Ranking
	done chan struct{}
}

// record subscribes to e and starts draining. The caller must Close the
// engine and then call wait before reading the recording.
func record(e *enblogue.Engine) *rankingRecorder {
	rec := &rankingRecorder{done: make(chan struct{})}
	sub := e.Subscribe(context.Background(), enblogue.SubBuffer(1<<16))
	go func() {
		defer close(rec.done)
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			rec.got = append(rec.got, r)
		}
	}()
	return rec
}

func (r *rankingRecorder) wait() []enblogue.Ranking {
	<-r.done
	return r.got
}

// consumeSerial replays items one Consume at a time and returns every
// published ranking — the reference the batched paths must reproduce
// bit-for-bit. opts are applied after the shard count.
func consumeSerial(items []*stream.Item, shards int, opts ...enblogue.Option) []enblogue.Ranking {
	e := enblogue.New(append([]enblogue.Option{enblogue.WithShards(shards)}, opts...)...)
	rec := record(e)
	for _, it := range items {
		e.Consume(it)
	}
	e.Flush()
	e.Close()
	return rec.wait()
}

// diffRankings fails the test with the first divergence between two
// ranking sequences, or returns quietly when they are deeply equal.
func diffRankings(t *testing.T, want, got []enblogue.Ranking) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("published %d rankings, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("ranking %d diverges:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestConsumeBatchMatchesSerial is the acceptance test for the batched
// ingest pipeline: for every workload × shard count × batch size, feeding
// the stream through ConsumeBatch in fixed-size runs publishes rankings
// bit-identical (reflect.DeepEqual over every tick, scores included) to
// the per-document serial replay with the same shard count.
func TestConsumeBatchMatchesSerial(t *testing.T) {
	for name, items := range equivWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{1, 4, 8} {
				want := consumeSerial(items, shards)
				if len(want) == 0 {
					t.Fatalf("serial replay of %q published no rankings; workload too small", name)
				}
				for _, batch := range []int{1, 64, 4096} {
					t.Run(fmt.Sprintf("shards-%d/batch-%d", shards, batch), func(t *testing.T) {
						e := enblogue.New(enblogue.WithShards(shards))
						rec := record(e)
						for lo := 0; lo < len(items); lo += batch {
							hi := lo + batch
							if hi > len(items) {
								hi = len(items)
							}
							e.ConsumeBatch(items[lo:hi])
						}
						e.Flush()
						e.Close()
						diffRankings(t, want, rec.wait())
					})
				}
			}
		})
	}
}

// TestRunMatchesSerial pins Run's internal batching: draining a source
// through Run publishes the same rankings as the per-document loop, and
// the final flush tick is included.
func TestRunMatchesSerial(t *testing.T) {
	items := equivWorkloads(t)["tweets"]
	want := consumeSerial(items, 2)
	e := enblogue.New(enblogue.WithShards(2))
	rec := record(e)
	if err := e.Run(t.Context(), enblogue.Items(items)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Close()
	diffRankings(t, want, rec.wait())
}
