package window

import (
	"math"
	"time"
)

// DecayCache memoizes the decay multiplier exp2(-dt/halfLife) for the last
// (halfLife, dt) it computed. The evaluation tick updates every tracked
// pair's decayed score with the same elapsed duration — one tick period —
// so one exponential per tick serves the entire pair population instead of
// one per pair. The cached factor is the value the uncached path would
// compute (same expression, same rounding), so cached and uncached reads
// are bit-identical.
//
// Not safe for concurrent use; each evaluation worker owns one cache.
type DecayCache struct {
	halfLife time.Duration
	dt       time.Duration
	factor   float64
	set      bool
}

// factorFor returns the decay multiplier for elapsed dt under hl, reusing
// the cached value on a repeat and memoizing otherwise.
func (c *DecayCache) factorFor(hl, dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	if c != nil && c.set && c.halfLife == hl && c.dt == dt {
		return c.factor
	}
	f := math.Exp2(-float64(dt) / float64(hl))
	if c != nil {
		c.halfLife, c.dt, c.factor, c.set = hl, dt, f, true
	}
	return f
}

// AtCachedNano returns the decayed value as of unix-nano time nano without
// modifying state, the exponential served from cache (see DecayCache; a
// nil cache computes it directly). Times before the last update return the
// stored value undecayed (the decay never "rewinds"). A zero stored value
// short-circuits: pairs that never erred skip the exponential entirely.
// The evaluation tick converts its time once and shares the integer
// across every pair.
func (d *Decay) AtCachedNano(nano int64, c *DecayCache) float64 {
	if !d.set || d.value == 0 {
		return 0
	}
	return d.value * c.factorFor(d.halfLife, time.Duration(nano-d.atNano))
}

// UpdateCachedNano decays the stored value to unix-nano time nano and then
// applies max with v: the stored value becomes max(decayed, v). This is
// exactly the paper's topic score maintenance — the maximum of the current
// prediction error and exponentially dampened past errors — computed
// incrementally in O(1). It returns the new value. The exponential is
// served from cache; see DecayCache. A nil cache computes it directly.
func (d *Decay) UpdateCachedNano(nano int64, v float64, c *DecayCache) float64 {
	cur := d.AtCachedNano(nano, c)
	if v > cur {
		cur = v
	}
	d.value = cur
	if !d.set || nano > d.atNano {
		d.atNano = nano
	}
	d.set = true
	return cur
}

// KeepUntilNano returns a conservative unix-nano deadline strictly before
// which AtCachedNano is guaranteed to stay at or above minScore, or 0 when no such
// guarantee can be given (unset value, value already at or below minScore,
// or non-positive minScore). The exact crossing is at dt* = halfLife ·
// log2(value/minScore) past the last update; returning 99% of dt* leaves a
// relative margin that dwarfs the rounding error of the log/exp round-trip,
// so a caller that skips the real read while now < deadline can never
// skip past an actual crossing. Sweeps use this to avoid recomputing an
// exponential per stale entry per tick: one log2 buys a long run of
// deadline comparisons, and the final expire decision is still made by the
// real read once the deadline passes.
func (d *Decay) KeepUntilNano(minScore float64) int64 {
	if !d.set || minScore <= 0 || d.value <= minScore {
		return 0
	}
	dt := 0.99 * float64(d.halfLife) * math.Log2(d.value/minScore)
	if dt <= 0 || dt >= math.MaxInt64 {
		return 0
	}
	return d.atNano + int64(dt)
}
