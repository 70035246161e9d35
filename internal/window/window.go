// Package window implements the time-based sliding-window primitives that
// underlie every statistic in enBlogue: bucketed sliding-window counters,
// held as slots of a slab-backed CounterArena, and exponential decay with a
// configurable half-life (Decay, and DecayCache for its exponentials).
//
// The paper computes tag popularity as "a sliding-window average on the
// document stream" and dampens past prediction errors "using an exponential
// decline factor with a half life of approximately 2 days"; the arena's
// windowed counters and Decay are the direct implementations of those
// mechanisms.
package window

import (
	"fmt"
	"time"
)

// mod returns a % m normalised to [0, m). Go's % can return negatives for
// negative operands (pre-1970 timestamps in tests).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

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
// update, which upper-bounds AtCachedNano for any later time. Evaluation
// loops use it as a one-load admission test before paying for the
// exponential.
func (d *Decay) Value() float64 { return d.value }
