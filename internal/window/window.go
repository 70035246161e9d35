// Package window implements the time-based sliding-window primitive that
// underlies every windowed statistic in enBlogue: bucketed sliding-window
// counters, held as slots of a slab-backed CounterArena.
//
// The paper computes tag popularity as "a sliding-window average on the
// document stream"; the arena's windowed counters are the direct
// implementation of that mechanism. The paper's other time mechanism, past
// prediction errors dampened "using an exponential decline factor with a
// half life of approximately 2 days", lives in internal/shift as one
// log-space float per pair.
package window

// mod returns a % m normalised to [0, m). Go's % can return negatives for
// negative operands (pre-1970 timestamps in tests).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
