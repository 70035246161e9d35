package window

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// naiveCounter is the per-event model of one sliding-window counter that
// the arena tests check CounterArena slots against: it keeps every
// accepted event's absolute bucket and recounts on every read. The head is
// the newest bucket any increment or read has reached; an increment older
// than the window behind the head is dropped, a late one inside it counts.
type naiveCounter struct {
	n       int64
	res     time.Duration
	head    int64
	headSet bool
	events  []int64
}

func (c *naiveCounter) advance(abs int64) {
	if !c.headSet || abs > c.head {
		c.head, c.headSet = abs, true
	}
}

func (c *naiveCounter) inc(t time.Time) {
	abs := t.UnixNano() / int64(c.res)
	c.advance(abs)
	if abs > c.head-c.n {
		c.events = append(c.events, abs)
	}
}

func (c *naiveCounter) valueAt(t time.Time) float64 {
	c.advance(t.UnixNano() / int64(c.res))
	var v float64
	for _, e := range c.events {
		if e > c.head-c.n {
			v++
		}
	}
	return v
}

// series returns the per-bucket counts oldest-first, all zero before the
// first increment or read.
func (c *naiveCounter) series() []float64 {
	out := make([]float64, c.n)
	if !c.headSet {
		return out
	}
	for _, e := range c.events {
		if i := e - (c.head - c.n + 1); i >= 0 && i < c.n {
			out[i]++
		}
	}
	return out
}

// The tests named for time buckets pin the bucketed sliding-window
// semantics every arena slot implements.

func TestTimeBucketsBasic(t *testing.T) {
	a := NewCounterArena(4, time.Minute)
	s := a.Alloc()
	a.Inc(s, t0)
	a.Inc(s, t0.Add(30*time.Second)) // same bucket
	a.Inc(s, t0.Add(time.Minute))
	if got := a.ValueAt(s, t0.Add(time.Minute)); got != 3 {
		t.Errorf("Value = %v, want 3", got)
	}
}

func TestTimeBucketsExpiry(t *testing.T) {
	a := NewCounterArena(3, time.Minute)
	s := a.Alloc()
	for m, n := range []int{1, 2, 3} {
		for i := 0; i < n; i++ {
			a.Inc(s, t0.Add(time.Duration(m)*time.Minute))
		}
	}
	if got := a.Value(s); got != 6 {
		t.Fatalf("Value = %v, want 6", got)
	}
	// Advancing one bucket expires the t0 bucket.
	if got := a.ValueAt(s, t0.Add(3*time.Minute)); got != 5 {
		t.Errorf("after 1 step: Value = %v, want 5", got)
	}
	// Jumping far beyond the span clears everything.
	if got := a.ValueAt(s, t0.Add(100*time.Minute)); got != 0 {
		t.Errorf("after long gap: Value = %v, want 0", got)
	}
	if got := a.Series(s); got[0]+got[1]+got[2] != 0 {
		t.Errorf("after long gap: Series = %v, want all zero", got)
	}
}

func TestTimeBucketsOutOfOrder(t *testing.T) {
	a := NewCounterArena(5, time.Minute)
	s := a.Alloc()
	a.Inc(s, t0.Add(4*time.Minute))
	// In-window late arrival: counted.
	a.Inc(s, t0.Add(2*time.Minute))
	if got := a.Value(s); got != 2 {
		t.Errorf("late in-window: Value = %v, want 2", got)
	}
	// Arrival older than the window: dropped.
	a.Inc(s, t0.Add(-10*time.Minute))
	if got := a.Value(s); got != 2 {
		t.Errorf("too-old arrival: Value = %v, want 2", got)
	}
}

func TestTimeBucketsSeries(t *testing.T) {
	a := NewCounterArena(3, time.Minute)
	s := a.Alloc()
	for m, n := range []int{1, 2, 3} {
		for i := 0; i < n; i++ {
			a.Inc(s, t0.Add(time.Duration(m)*time.Minute))
		}
	}
	want := []float64{1, 2, 3}
	if got := a.Series(s); !equalSeries(got, want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	for i := 0; i < 4; i++ {
		a.Inc(s, t0.Add(3*time.Minute))
	}
	want = []float64{2, 3, 4}
	if got := a.Series(s); !equalSeries(got, want) {
		t.Fatalf("Series after slide = %v, want %v", got, want)
	}
}

func equalSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTimeBucketsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero buckets":   func() { NewCounterArena(0, time.Second) },
		"neg resolution": func() { NewCounterArena(1, -time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: for monotone timestamp sequences, a slot's windowed count
// equals a naive recount of the events whose bucket lies within the last n
// buckets.
func TestTimeBucketsMatchesNaive(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewCounterArena(8, time.Second)
		s := a.Alloc()
		ref := &naiveCounter{n: 8, res: time.Second}
		cur := t0
		for i := 0; i < int(nEvents); i++ {
			cur = cur.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			a.Inc(s, cur)
			ref.inc(cur)
		}
		return a.ValueAt(s, cur) == ref.valueAt(cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	a := NewCounterArena(10, time.Second)
	s := a.Alloc()
	for i := 0; i < 5; i++ {
		a.Inc(s, t0.Add(time.Duration(i)*time.Second))
	}
	if got := a.Value(s); got != 5 {
		t.Errorf("Value = %v, want 5", got)
	}
	if got := a.ValueAt(s, t0.Add(30*time.Second)); got != 0 {
		t.Errorf("Value after expiry = %v, want 0", got)
	}
	if got := len(a.Series(s)); got != 10 {
		t.Errorf("Series length = %d, want 10", got)
	}
}
