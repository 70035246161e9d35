package window

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func TestTimeBucketsBasic(t *testing.T) {
	w := NewTimeBuckets(4, time.Minute)
	w.Add(t0, 1)
	w.Add(t0.Add(30*time.Second), 2) // same bucket
	w.Add(t0.Add(time.Minute), 3)
	if got := w.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := w.n; got != 3 {
		t.Errorf("n = %v, want 3", got)
	}
}

func TestTimeBucketsExpiry(t *testing.T) {
	w := NewTimeBuckets(3, time.Minute)
	w.Add(t0, 10)
	w.Add(t0.Add(1*time.Minute), 20)
	w.Add(t0.Add(2*time.Minute), 30)
	if got := w.Sum(); got != 60 {
		t.Fatalf("Sum = %v, want 60", got)
	}
	// Advancing one bucket expires the t0 bucket.
	w.Observe(t0.Add(3 * time.Minute))
	if got := w.Sum(); got != 50 {
		t.Errorf("after 1 step: Sum = %v, want 50", got)
	}
	// Jumping far beyond the span clears everything.
	w.Observe(t0.Add(100 * time.Minute))
	if got := w.Sum(); got != 0 {
		t.Errorf("after long gap: Sum = %v, want 0", got)
	}
	if got := w.n; got != 0 {
		t.Errorf("after long gap: n = %v, want 0", got)
	}
}

func TestTimeBucketsOutOfOrder(t *testing.T) {
	w := NewTimeBuckets(5, time.Minute)
	w.Add(t0.Add(4*time.Minute), 1)
	// In-window late arrival: counted.
	w.Add(t0.Add(2*time.Minute), 1)
	if got := w.Sum(); got != 2 {
		t.Errorf("late in-window: Sum = %v, want 2", got)
	}
	// Arrival older than the window: dropped.
	w.Add(t0.Add(-10*time.Minute), 5)
	if got := w.Sum(); got != 2 {
		t.Errorf("too-old arrival: Sum = %v, want 2", got)
	}
}

func TestTimeBucketsSeries(t *testing.T) {
	w := NewTimeBuckets(3, time.Minute)
	w.Add(t0, 1)
	w.Add(t0.Add(time.Minute), 2)
	w.Add(t0.Add(2*time.Minute), 3)
	got := w.Series()
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
	w.Add(t0.Add(3*time.Minute), 4)
	got = w.Series()
	want = []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series after slide = %v, want %v", got, want)
		}
	}
}

func TestTimeBucketsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero buckets":   func() { NewTimeBuckets(0, time.Second) },
		"neg resolution": func() { NewTimeBuckets(1, -time.Second) },
		"zero half-life": func() { MakeDecay(0) },
		"bad alpha":      func() { NewEWMA(1.5) },
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

// Property: for monotone timestamp sequences, the windowed sum equals a
// naive recount of the values whose bucket lies within the last n buckets.
func TestTimeBucketsMatchesNaive(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		res := time.Second
		w := NewTimeBuckets(n, res)
		type ev struct {
			abs int64
			v   float64
		}
		var evs []ev
		cur := t0
		for i := 0; i < int(nEvents); i++ {
			cur = cur.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			v := float64(rng.Intn(10))
			w.Add(cur, v)
			evs = append(evs, ev{cur.UnixNano() / int64(res), v})
		}
		if len(evs) == 0 {
			return w.Sum() == 0
		}
		head := evs[len(evs)-1].abs
		var want float64
		for _, e := range evs {
			if e.abs > head-int64(n) {
				want += e.v
			}
		}
		return math.Abs(w.Sum()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(10, time.Second)
	for i := 0; i < 5; i++ {
		c.Inc(t0.Add(time.Duration(i) * time.Second))
	}
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %v, want 5", got)
	}
	c.Observe(t0.Add(30 * time.Second))
	if got := c.Value(); got != 0 {
		t.Errorf("Value after expiry = %v, want 0", got)
	}
	if got := len(c.tb.Series()); got != 10 {
		t.Errorf("Series length = %d, want 10", got)
	}
}

func TestDecayHalving(t *testing.T) {
	d := MakeDecay(2 * 24 * time.Hour) // the paper's ~2-day half-life
	d.UpdateCachedNano(t0.UnixNano(), 8, nil)
	if got := d.At(t0); got != 8 {
		t.Errorf("At(t0) = %v, want 8", got)
	}
	if got := d.At(t0.Add(2 * 24 * time.Hour)); math.Abs(got-4) > 1e-9 {
		t.Errorf("after one half-life = %v, want 4", got)
	}
	if got := d.At(t0.Add(4 * 24 * time.Hour)); math.Abs(got-2) > 1e-9 {
		t.Errorf("after two half-lives = %v, want 2", got)
	}
	// Decay never rewinds for earlier timestamps.
	if got := d.At(t0.Add(-time.Hour)); got != 8 {
		t.Errorf("before set = %v, want 8", got)
	}
}

func TestDecayUpdateIsMaxOfDecayedHistory(t *testing.T) {
	// Update must equal the brute-force max over the full error history.
	half := time.Hour
	d := MakeDecay(half)
	type obs struct {
		at time.Time
		v  float64
	}
	rng := rand.New(rand.NewSource(7))
	var hist []obs
	cur := t0
	for i := 0; i < 200; i++ {
		cur = cur.Add(time.Duration(rng.Intn(120)) * time.Minute)
		v := rng.Float64() * 10
		hist = append(hist, obs{cur, v})
		got := d.UpdateCachedNano(cur.UnixNano(), v, nil)
		var want float64
		for _, h := range hist {
			decayed := h.v * math.Exp2(-cur.Sub(h.at).Seconds()/half.Seconds())
			if decayed > want {
				want = decayed
			}
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("step %d: Update = %v, brute-force max = %v", i, got, want)
		}
	}
}

func TestDecayZeroBeforeSet(t *testing.T) {
	d := MakeDecay(time.Hour)
	if got := d.At(t0); got != 0 {
		t.Errorf("At before any update = %v, want 0", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("Initialized before Add")
	}
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %v, want 10 (seeds with first value)", got)
	}
	if got := e.Add(0); got != 5 {
		t.Errorf("second Add = %v, want 5", got)
	}
	if got := e.Value(); got != 5 {
		t.Errorf("Value = %v, want 5", got)
	}
}

// Property: EWMA output always lies between the min and max of observations.
func TestEWMABounded(t *testing.T) {
	f := func(xs []float64, alphaRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		alpha := (float64(alphaRaw%99) + 1) / 100
		e := NewEWMA(alpha)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			v := e.Add(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTimeBucketsAdd(b *testing.B) {
	w := NewTimeBuckets(3600, time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(t0.Add(time.Duration(i)*time.Millisecond), 1)
	}
}

func BenchmarkDecayUpdate(b *testing.B) {
	d := MakeDecay(48 * time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.UpdateCachedNano(t0.Add(time.Duration(i)*time.Second).UnixNano(), float64(i%17), nil)
	}
}
