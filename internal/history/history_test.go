package history

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
)

// itemAt builds a stream item at hour/minute offsets from base.
func itemAt(base time.Time, hr, mi, id int, tags ...string) *stream.Item {
	return &stream.Item{
		Time:  base.Add(time.Duration(hr)*time.Hour + time.Duration(mi)*time.Minute),
		DocID: fmt.Sprintf("doc-%05d", id),
		Tags:  tags,
	}
}

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func ranking(at time.Time, scored ...float64) core.Ranking {
	r := core.Ranking{At: at}
	for i, s := range scored {
		r.Topics = append(r.Topics, shift.Topic{
			Pair:  pairs.MakeKey(fmt.Sprintf("t%d", i), "x"),
			Score: s,
			At:    at,
		})
	}
	return r
}

func TestRecordAndSpan(t *testing.T) {
	h := New(100)
	for i := 0; i < 5; i++ {
		if err := h.Record(ranking(t0.Add(time.Duration(i)*time.Hour), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.rankings) != 5 {
		t.Fatalf("%d ticks retained, want 5", len(h.rankings))
	}
	if from, to := h.rankings[0].At, h.rankings[4].At; !from.Equal(t0) || !to.Equal(t0.Add(4*time.Hour)) {
		t.Errorf("span = %v..%v", from, to)
	}
}

func TestRecordRejectsOutOfOrder(t *testing.T) {
	h := New(10)
	h.Record(ranking(t0.Add(time.Hour), 1))
	if err := h.Record(ranking(t0, 1)); err == nil {
		t.Error("out-of-order Record accepted")
	}
	// Equal timestamps are fine (engine Flush can re-tick at lastSeen).
	if err := h.Record(ranking(t0.Add(time.Hour), 2)); err != nil {
		t.Errorf("equal-time Record rejected: %v", err)
	}
}

func TestEviction(t *testing.T) {
	h := New(3)
	for i := 0; i < 10; i++ {
		h.Record(ranking(t0.Add(time.Duration(i)*time.Hour), float64(i)))
	}
	if len(h.rankings) != 3 {
		t.Fatalf("%d ticks retained, want 3", len(h.rankings))
	}
	if from := h.rankings[0].At; !from.Equal(t0.Add(7 * time.Hour)) {
		t.Errorf("oldest retained = %v", from)
	}
}

// buildHistory records ticks where pair "a+b" scores 1,3,2 and "c+d" scores
// 5 only on the middle tick.
func buildHistory(t *testing.T) *History {
	t.Helper()
	h := New(0)
	ab := pairs.MakeKey("a", "b")
	cd := pairs.MakeKey("c", "d")
	mk := func(at time.Time, abScore float64, withCD bool) core.Ranking {
		r := core.Ranking{At: at}
		r.Topics = append(r.Topics, shift.Topic{Pair: ab, Score: abScore, At: at})
		if withCD {
			r.Topics = append(r.Topics, shift.Topic{Pair: cd, Score: 5, At: at})
		}
		// Keep descending order as the engine produces it.
		if withCD {
			r.Topics[0], r.Topics[1] = r.Topics[1], r.Topics[0]
		}
		return r
	}
	h.Record(mk(t0, 1, false))
	h.Record(mk(t0.Add(time.Hour), 3, true))
	h.Record(mk(t0.Add(2*time.Hour), 2, false))
	return h
}

func TestTopInRangeMax(t *testing.T) {
	h := buildHistory(t)
	top := h.TopInRange(time.Time{}, time.Time{}, 10, MaxScore)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Pair != pairs.MakeKey("c", "d") || top[0].Score != 5 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Score != 3 || top[1].Ticks != 3 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if !top[1].First.Equal(t0) || !top[1].Last.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("a+b bounds = %v..%v", top[1].First, top[1].Last)
	}
}

func TestTopInRangeMeanAndLast(t *testing.T) {
	h := buildHistory(t)
	ab := pairs.MakeKey("a", "b")
	mean := h.TopInRange(time.Time{}, time.Time{}, 10, MeanScore)
	for _, e := range mean {
		if e.Pair == ab && math.Abs(e.Score-2) > 1e-12 {
			t.Errorf("mean(a+b) = %v, want 2", e.Score)
		}
	}
	last := h.TopInRange(time.Time{}, time.Time{}, 10, LastScore)
	for _, e := range last {
		if e.Pair == ab && e.Score != 2 {
			t.Errorf("last(a+b) = %v, want 2", e.Score)
		}
	}
}

func TestTopInRangeBounds(t *testing.T) {
	h := buildHistory(t)
	// Restricting to the first tick excludes c+d entirely.
	top := h.TopInRange(t0, t0.Add(30*time.Minute), 10, MaxScore)
	if len(top) != 1 || top[0].Pair != pairs.MakeKey("a", "b") || top[0].Score != 1 {
		t.Errorf("range-limited top = %+v", top)
	}
	// Different ranges give different rankings — show case 1's promise.
	top2 := h.TopInRange(t0.Add(time.Hour), t0.Add(2*time.Hour), 10, MaxScore)
	if top2[0].Pair != pairs.MakeKey("c", "d") {
		t.Errorf("second-range top = %+v", top2)
	}
	// Empty range.
	if got := h.TopInRange(t0.Add(10*time.Hour), t0.Add(20*time.Hour), 5, MaxScore); got != nil {
		t.Errorf("empty range top = %+v", got)
	}
	// k <= 0.
	if got := h.TopInRange(time.Time{}, time.Time{}, 0, MaxScore); got != nil {
		t.Errorf("k=0 top = %+v", got)
	}
	// Truncation to k.
	if got := h.TopInRange(time.Time{}, time.Time{}, 1, MaxScore); len(got) != 1 {
		t.Errorf("k=1 top = %+v", got)
	}
}

func TestTrajectory(t *testing.T) {
	h := buildHistory(t)
	traj := h.Trajectory(pairs.MakeKey("a", "b"), time.Time{}, time.Time{})
	if len(traj) != 3 {
		t.Fatalf("traj = %+v", traj)
	}
	// Middle tick: c+d (score 5) is first, a+b second.
	wantRanks := []int{0, 1, 0}
	for i, pt := range traj {
		if pt.Rank != wantRanks[i] {
			t.Errorf("tick %d rank = %d, want %d", i, pt.Rank, wantRanks[i])
		}
	}
	traj = h.Trajectory(pairs.MakeKey("no", "pe"), time.Time{}, time.Time{})
	for _, pt := range traj {
		if pt.Rank != -1 {
			t.Errorf("absent pair has rank %d", pt.Rank)
		}
	}
}

func TestAggregateParse(t *testing.T) {
	for _, a := range []Aggregate{MaxScore, MeanScore, LastScore} {
		got, err := ParseAggregate(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAggregate(%q) = %v, %v", a.String(), got, err)
		}
	}
	if got, err := ParseAggregate(""); err != nil || got != MaxScore {
		t.Errorf("empty aggregate = %v, %v", got, err)
	}
	if _, err := ParseAggregate("median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if Aggregate(9).String() != "aggregate(9)" {
		t.Errorf("unknown String = %q", Aggregate(9).String())
	}
}

func TestConcurrentRecordAndQuery(t *testing.T) {
	h := New(1000)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			h.Record(ranking(t0.Add(time.Duration(i)*time.Minute), float64(i%7)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			h.TopInRange(time.Time{}, time.Time{}, 5, MaxScore)
		}
	}()
	wg.Wait()
	if len(h.rankings) != 500 {
		t.Errorf("%d ticks retained, want 500", len(h.rankings))
	}
}

// End-to-end: a real engine's rankings recorded and queried by range.
func TestHistoryWithEngine(t *testing.T) {
	h := New(0)
	e := core.New(core.Config{
		WindowBuckets:    12,
		WindowResolution: time.Hour,
		SeedCount:        10,
		SeedWarmupDocs:   10,
		MinCooccurrence:  2,
		TopK:             5,
		UpOnly:           true,
	})
	// Record every tick through a broker subscription, as a live server
	// (Server.Follow) does.
	sub := e.Subscribe(context.Background(), core.SubBuffer(256))
	recorded := make(chan error, 1)
	go func() {
		defer close(recorded)
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			if err := h.Record(r); err != nil {
				recorded <- err
				return
			}
		}
	}()
	// Background, then an event in hour 6.
	id := 0
	for hr := 0; hr < 10; hr++ {
		for mi := 0; mi < 60; mi += 5 {
			id++
			e.Consume(itemAt(t0, hr, mi, id, "news", "politics"))
		}
	}
	for mi := 0; mi < 60; mi += 6 {
		id++
		e.Consume(itemAt(t0, 6, mi, id, "news", "scandal"))
	}
	e.Flush()
	e.Close() // end the subscription so the recorder goroutine finishes
	if err := <-recorded; err != nil {
		t.Fatalf("Record: %v", err)
	}

	if len(h.rankings) == 0 {
		t.Fatal("no ticks recorded")
	}
	// The event pair should top the range covering hours 6-9 but be absent
	// from a range before the event.
	top := h.TopInRange(t0.Add(6*time.Hour), t0.Add(10*time.Hour), 3, MaxScore)
	found := false
	for _, e := range top {
		if e.Pair == pairs.MakeKey("news", "scandal") {
			found = true
		}
	}
	if !found {
		t.Errorf("event pair missing from event range: %+v", top)
	}
	before := h.TopInRange(t0, t0.Add(5*time.Hour), 10, MaxScore)
	for _, e := range before {
		if e.Pair == pairs.MakeKey("news", "scandal") {
			t.Error("event pair present before the event")
		}
	}
}
