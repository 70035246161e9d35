// Package window implements the time-based sliding-window primitives that
// underlie every statistic in enBlogue: bucketed sliding-window counters
// (TimeBuckets, Counter, and the slab-backed CounterArena) and exponential
// decay with a configurable half-life.
//
// The paper computes tag popularity as "a sliding-window average on the
// document stream" and dampens past prediction errors "using an exponential
// decline factor with a half life of approximately 2 days"; the windowed
// counters and Decay are the direct implementations of those mechanisms.
package window

import (
	"fmt"
	"math"
	"time"
)

// TimeBuckets is a circular buffer of per-bucket float64 accumulators
// covering a sliding window of span = n × resolution. Adding a value at time
// t credits the bucket containing t; buckets older than the span are lazily
// zeroed as time advances. Reads are exact at bucket granularity.
//
// The zero value is not usable; construct with NewTimeBuckets.
type TimeBuckets struct {
	res     time.Duration
	buckets []float64
	counts  []int64
	// head is the absolute bucket index (unix time / res) stored at slot
	// head % len(buckets). headSet records whether head is initialised.
	head    int64
	headSet bool
	total   float64
	n       int64
}

// NewTimeBuckets returns a window of n buckets of the given resolution.
// It panics if n < 1 or resolution <= 0: both indicate a programming error,
// not a runtime condition.
func NewTimeBuckets(n int, resolution time.Duration) *TimeBuckets {
	if n < 1 {
		panic(fmt.Sprintf("window: bucket count %d < 1", n))
	}
	if resolution <= 0 {
		panic(fmt.Sprintf("window: resolution %v <= 0", resolution))
	}
	return &TimeBuckets{
		res:     resolution,
		buckets: make([]float64, n),
		counts:  make([]int64, n),
	}
}

// bucketIndex maps a timestamp to its absolute bucket number.
func (w *TimeBuckets) bucketIndex(t time.Time) int64 {
	return t.UnixNano() / int64(w.res)
}

// advance moves the window head to cover abs, zeroing any buckets that fall
// out of the window. Out-of-order timestamps that still land inside the
// window are credited to their (old) bucket; ones older than the window are
// ignored by Add.
func (w *TimeBuckets) advance(abs int64) {
	if !w.headSet {
		w.head = abs
		w.headSet = true
		return
	}
	if abs <= w.head {
		return
	}
	steps := abs - w.head
	if steps >= int64(len(w.buckets)) {
		for i := range w.buckets {
			w.buckets[i] = 0
			w.counts[i] = 0
		}
		w.total, w.n = 0, 0
		w.head = abs
		return
	}
	// One modulo for the first expired bucket, then wrap by comparison:
	// a per-bucket integer division would dominate this loop.
	slot := int(mod(w.head+1, int64(len(w.buckets))))
	for b := w.head + 1; b <= abs; b++ {
		w.total -= w.buckets[slot]
		w.n -= w.counts[slot]
		w.buckets[slot] = 0
		w.counts[slot] = 0
		if slot++; slot == len(w.buckets) {
			slot = 0
		}
	}
	w.head = abs
	// Guard against floating-point drift pushing the running total negative.
	if w.n == 0 {
		w.total = 0
	}
}

// Add credits value v to the bucket containing t. Values older than the
// current window are dropped; values newer than the head advance the window.
func (w *TimeBuckets) Add(t time.Time, v float64) {
	abs := w.bucketIndex(t)
	w.advance(abs)
	if abs <= w.head-int64(len(w.buckets)) {
		return // too old: outside the window
	}
	slot := int(mod(abs, int64(len(w.buckets))))
	w.buckets[slot] += v
	w.counts[slot]++
	w.total += v
	w.n++
}

// Observe advances the window to time t without adding anything, expiring
// stale buckets. Useful before reading during quiet periods.
func (w *TimeBuckets) Observe(t time.Time) {
	w.advance(w.bucketIndex(t))
}

// Sum returns the sum of all values currently inside the window.
func (w *TimeBuckets) Sum() float64 { return w.total }

// Series returns the per-bucket sums oldest-first. The slice has one entry
// per bucket and is freshly allocated.
//
//enblogue:reference the per-bucket model arena_test checks CounterArena.Series against
func (w *TimeBuckets) Series() []float64 {
	out := make([]float64, len(w.buckets))
	if !w.headSet {
		return out
	}
	n := int64(len(w.buckets))
	for i := int64(0); i < n; i++ {
		b := w.head - (n - 1) + i
		out[i] = w.buckets[int(mod(b, n))]
	}
	return out
}

// mod returns a % m normalised to [0, m). Go's % can return negatives for
// negative operands (pre-1970 timestamps in tests).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Counter counts events in a sliding window. It is a thin veneer over
// TimeBuckets with unit weights, matching the paper's document counts per
// tag and per tag pair.
type Counter struct {
	tb *TimeBuckets
}

// NewCounter returns a sliding event counter with the given number of
// buckets and bucket resolution.
func NewCounter(n int, resolution time.Duration) *Counter {
	return &Counter{tb: NewTimeBuckets(n, resolution)}
}

// Inc records one event at time t.
func (c *Counter) Inc(t time.Time) { c.tb.Add(t, 1) }

// Observe advances the window to t, expiring old events.
func (c *Counter) Observe(t time.Time) { c.tb.Observe(t) }

// Value returns the number of events inside the window.
func (c *Counter) Value() float64 { return c.tb.Sum() }

// Decay is an exponentially decaying value with a fixed half-life: after one
// half-life the stored value has halved. It implements the paper's damping
// of past prediction errors ("an exponential decline factor with a half life
// of approximately 2 days").
//
// The zero value is unusable; construct with MakeDecay.
//
// Time is carried internally as unix nanoseconds: the detector's evaluation
// tick updates one Decay per tracked pair, and an int64 stamp makes that
// update a plain integer store where a time.Time field would cost a
// monotonic-clock branch on every subtraction and a GC write barrier (for
// the location pointer) on every store.
type Decay struct {
	halfLife time.Duration
	value    float64
	atNano   int64
	set      bool
}

// MakeDecay returns a decaying value by value, for embedding directly in a
// larger struct (one allocation for the struct instead of one per Decay).
// It panics if halfLife <= 0.
func MakeDecay(halfLife time.Duration) Decay {
	if halfLife <= 0 {
		panic(fmt.Sprintf("window: half-life %v <= 0", halfLife))
	}
	return Decay{halfLife: halfLife}
}

// Value returns the stored (undecayed) value: the value as of the last
// update, which upper-bounds At for any later time. Evaluation loops use it
// as a one-load admission test before paying for the exponential.
func (d *Decay) Value() float64 { return d.value }

// factor returns the decay multiplier for elapsed duration dt. The
// exponent divides the raw nanosecond counts directly — one division
// instead of two Seconds() conversions; the ratio is the same quantity.
func (d *Decay) factor(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(d.halfLife))
}

// At returns the decayed value as of time t without modifying state.
// Times before the last update return the stored value undecayed (the decay
// never "rewinds"). A zero stored value short-circuits: the evaluation tick
// calls At once per tracked pair, and pairs that never erred skip the
// exponential entirely.
func (d *Decay) At(t time.Time) float64 {
	return d.AtNano(t.UnixNano())
}

// AtNano is At taking the time as unix nanoseconds — the evaluation tick
// converts the tick time once and shares the integer across every pair.
func (d *Decay) AtNano(nano int64) float64 {
	if !d.set || d.value == 0 {
		return 0
	}
	return d.value * d.factor(time.Duration(nano-d.atNano))
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: next = alpha*x + (1-alpha)*prev. It is time-agnostic
// (per-observation), used by predictors and the burst baseline.
type EWMA struct {
	alpha float64
	value float64
	set   bool
}

// NewEWMA returns an EWMA with the given alpha. It panics if alpha is
// outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("window: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds observation x into the average and returns the new value.
func (e *EWMA) Add(x float64) float64 {
	if !e.set {
		e.value = x
		e.set = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.set }
