package sketch

// WindowedCountMin ages a Count-Min sketch in step with the engine's
// sliding statistics window using two generations: all mass lands in the
// current generation, estimates read current + previous, and advancing one
// generation retires the previous sketch and recycles it as the new current
// one. A key's estimate therefore covers at least the last full generation
// span and at most two — an upper bound on its windowed count whenever the
// generation span is at least the window span — and mass added longer than
// two spans ago has fully decayed to zero instead of accumulating forever.
//
// Generations are indexed by event time (the caller passes gen =
// eventNanos / span), never the wall clock, so rotation points are
// replay-deterministic like every other decay boundary in the engine.
type WindowedCountMin struct {
	cur, prev *CountMin
	gen       int64
	started   bool
}

// NewWindowedCountMinWithError returns a windowed sketch whose per-
// generation additive error is at most epsilon × generation mass with
// failure probability delta (each generation is a CountMin sized by
// NewCountMinWithError).
func NewWindowedCountMinWithError(epsilon, delta float64) *WindowedCountMin {
	return &WindowedCountMin{
		cur:  NewCountMinWithError(epsilon, delta),
		prev: NewCountMinWithError(epsilon, delta),
	}
}

// Advance moves the sketch to generation gen. One step forward rotates
// (prev ← cur, cur ← zeroed); a jump of two or more spans zeroes both
// generations — everything tracked has aged out. Moving backwards is
// ignored: event time is monotone on the paths that feed the sketch, and a
// stale reader must not clear newer mass.
func (w *WindowedCountMin) Advance(gen int64) {
	if w.started && gen <= w.gen {
		return
	}
	switch {
	case !w.started:
		// First mass defines the epoch; nothing to age out.
	case gen == w.gen+1:
		w.cur, w.prev = w.prev, w.cur
		w.cur.Reset()
	default: // gen ≥ w.gen+2
		w.cur.Reset()
		w.prev.Reset()
	}
	w.gen = gen
	w.started = true
}

// AddU64 adds weight n of key to the current generation.
//
//enblogue:hotpath
func (w *WindowedCountMin) AddU64(key uint64, n uint64) {
	w.cur.AddU64(key, n)
}

// EstimateU64 returns the upper-bound estimate of key's mass over the live
// generations (current + previous).
//
//enblogue:hotpath
func (w *WindowedCountMin) EstimateU64(key uint64) uint64 {
	return w.cur.CountU64(key) + w.prev.CountU64(key)
}

// Mass returns the total mass across the live generations — the N in the
// εN error bound reported by /v1 stats.
func (w *WindowedCountMin) Mass() uint64 {
	return w.cur.Total() + w.prev.Total()
}

// Epsilon returns the additive-error fraction of each generation sketch.
func (w *WindowedCountMin) Epsilon() float64 { return w.cur.Epsilon() }
