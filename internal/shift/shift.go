// Package shift implements stage (iii) of the paper — shift detection:
// "We consider sudden (but significant) increases in the correlation of tag
// pairs as an indicator for an emergent topic. ... at any point in time we
// use the previous correlation values and try to predict the current ones.
// If a predicted value is far away from the real one then the topic is
// considered to be emergent and the prediction error is used as a ranking
// criterion. At any point in time the score of a topic is the maximum of
// the current prediction error and the prediction errors from the past,
// dampened appropriately using an exponential decline factor with a half
// life of approximately 2 days."
package shift

import (
	"math"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/window"
)

// DefaultHalfLife is the paper's "approximately 2 days".
const DefaultHalfLife = 48 * time.Hour

// Config parameterises a Detector.
type Config struct {
	// Measure is the correlation measure evaluated per pair.
	Measure pairs.Measure
	// Predictor selects the one-step forecaster per pair.
	Predictor predict.Kind
	// PredictorConfig tunes the forecaster.
	PredictorConfig predict.Config
	// HalfLife dampens past prediction errors. Zero means DefaultHalfLife.
	HalfLife time.Duration
	// MinCooccurrence suppresses scoring of pairs with less windowed
	// support than this ("sudden but significant"). Zero means 2.
	MinCooccurrence float64
	// UpOnly scores only increases in correlation when true (the paper
	// looks for "sudden ... increases"); when false the absolute error is
	// used, also flagging collapses.
	UpOnly bool
}

func (c Config) withDefaults() Config {
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.MinCooccurrence <= 0 {
		c.MinCooccurrence = 2
	}
	return c
}

// Topic is the evaluation result for one tag pair at one tick.
type Topic struct {
	Pair pairs.Key
	// Score is the ranking criterion: the decayed maximum of prediction
	// errors up to and including this tick.
	Score float64
	// Correlation is the measured correlation at this tick.
	Correlation float64
	// Predicted is the forecast the correlation was compared against;
	// meaningless when Warmup is true.
	Predicted float64
	// Error is the current prediction error (the "shift" magnitude).
	Error float64
	// Cooccurrence is the windowed number of documents with both tags.
	Cooccurrence float64
	// At is the evaluation time.
	At time.Time
	// Warmup reports that the pair had too little history to score.
	Warmup bool
}

// state is the per-pair incremental detector state. States live in a dense
// slab (Detector.states) rather than behind one heap pointer each: the
// evaluation tick walks tens of thousands of them, and slab entries touched
// in snapshot order stay cache-resident where pointer-chased heap objects
// would not. key doubles as the liveness flag — a zero pairs.Key never
// names a real pair (interned IDs are biased by +1 before packing), so
// key == pairs.Key{} marks a free slab entry.
type state struct {
	key pairs.Key
	// naive is the inlined default predictor: when the detector is
	// configured with predict.KindNaive (the default), the forecaster
	// state lives here by value — no per-pair predictor allocation and no
	// interface-call indirection on the hot loop. Any other kind allocates
	// through predict.New into the detector's side slice Detector.preds,
	// keyed by slab index: keeping the interface out of this struct keeps
	// the slab pointer-free (the garbage collector never scans it) and
	// shaves two words off every entry the evaluation tick streams over.
	naive predict.Naive
	decay window.Decay
	// seenNano is the unix-nano stamp of the last evaluation tick that
	// touched this pair — an int64 rather than a time.Time so the per-pair
	// store on the evaluation hot loop is barrier-free.
	seenNano int64
	// keepUntilNano caches decay.KeepUntilNano(minScore) between sweeps: a
	// stale pair's decay state does not change while it is stale, so one
	// log2 buys every subsequent sweep a plain integer comparison instead
	// of an exponential. Zero means unknown; reset whenever decay updates.
	keepUntilNano int64
}

// Detector maintains per-pair predictors and decayed score maxima. It is
// not safe for concurrent use.
type Detector struct {
	cfg      Config
	useNaive bool
	// index maps a pair to its slab position; states is the slab itself
	// with free entries (zero key) chained through free. preds carries the
	// non-naive predictors parallel to states (see state.naive); it stays
	// nil under the default naive predictor.
	index  map[pairs.Key]int32
	states []state
	preds  []predict.Predictor
	free   []int32
	// cache memoizes the per-tick decay factor shared by every pair
	// evaluated with the same elapsed duration.
	cache window.DecayCache
	// bySlot caches, per caller-provided slot hint, the slab index the
	// hint last resolved to. The engine's evaluation loop feeds each pair's
	// tracker arena slot as the hint: a slot names the same pair for the
	// pair's whole tracked lifetime, so after a pair's first evaluation the
	// hint resolves its detector state with one array read plus a key
	// compare instead of a map probe — no positional bookkeeping, immune to
	// pair insertion and eviction churn. A stale entry (slot reused by a
	// different pair, or the state released) fails the key validation and
	// falls back to the map, which rewrites the entry; a hit can therefore
	// never resolve to the wrong pair. -1 marks a never-written entry.
	bySlot []int32
	// curTickNano and tickCount track evaluation rounds: pairs first seen
	// on round one get a silent warm-up (the detector has no history for
	// anything yet), while pairs appearing on later rounds are scored
	// against an implicit previous correlation of zero — they were not
	// tracked before precisely because their tags never co-occurred. The
	// round clock is a unix-nano wall stamp, not a time.Time: the advance
	// check runs once per pair evaluation, and an integer compare skips
	// time.After's monotonic-clock resolution.
	curTickNano int64
	tickCount   int
}

// NewDetector returns a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	c := cfg.withDefaults()
	return &Detector{
		cfg:      c,
		useNaive: c.Predictor == predict.KindNaive,
		index:    make(map[pairs.Key]int32),
		// Zero times carry a large negative UnixNano, so "unset" must sit
		// below any representable stamp for the first tick to advance.
		curTickNano: math.MinInt64,
	}
}

// alloc returns a fresh zeroed slab position for pair k.
func (d *Detector) alloc(k pairs.Key) (*state, int32) {
	var i int32
	if n := len(d.free); n > 0 {
		i = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		i = int32(len(d.states))
		d.states = append(d.states, state{})
	}
	st := &d.states[i]
	*st = state{key: k, decay: window.MakeDecay(d.cfg.HalfLife)}
	if !d.useNaive {
		for int(i) >= len(d.preds) {
			d.preds = append(d.preds, nil)
		}
		d.preds[i] = predict.New(d.cfg.Predictor, d.cfg.PredictorConfig)
	}
	d.index[k] = i
	return st, i
}

// release frees the slab entry at position i after removing its pair from
// the index.
func (d *Detector) release(i int32) {
	st := &d.states[i]
	delete(d.index, st.key)
	*st = state{}
	if !d.useNaive {
		d.preds[i] = nil
	}
	d.free = append(d.free, i)
}

// predict consults the pair's forecaster.
func (d *Detector) predict(st *state, i int32) (float64, bool) {
	if d.useNaive {
		return st.naive.Predict()
	}
	return d.preds[i].Predict()
}

// observe feeds the pair's forecaster the measured correlation.
func (d *Detector) observe(st *state, i int32, corr float64) {
	if d.useNaive {
		st.naive.Observe(corr)
	} else {
		d.preds[i].Observe(corr)
	}
}

// BeginTick advances the detector's evaluation-round clock to t without
// evaluating anything. Sharded engines call it on every shard detector at
// the start of a tick so that a shard whose first pair arrives late still
// agrees with a single global detector on which round it is — the round
// number decides whether a first-seen pair gets a silent warm-up (round
// one) or is scored against an implicit previous correlation of zero.
// Evaluate and EvaluateCorrelation advance the clock themselves, so callers
// evaluating through a single detector never need BeginTick.
func (d *Detector) BeginTick(t time.Time) {
	if tn := t.UnixNano(); tn > d.curTickNano {
		d.curTickNano = tn
		d.tickCount++
	}
}

// Evaluate scores pair k at tick time t given the windowed counts: nab
// documents with both tags, na/nb with each tag, n total. It updates the
// pair's predictor with the measured correlation and returns the tick's
// Topic. Call once per pair per tick, with monotonically non-decreasing t.
//
//enblogue:reference the one-pair entry the shift tests score through; sharded_test checks Sharded against it
func (d *Detector) Evaluate(t time.Time, k pairs.Key, nab, na, nb, n float64) Topic {
	var topic Topic
	d.EvaluateCorrelationInto(t, k, -1, d.cfg.Measure.Compute(nab, na, nb, n), nab, -1, &topic)
	return topic
}

// EvaluateInto is Evaluate writing the result through out instead of
// returning it, with a slot hint and an admission floor: the engine's
// per-shard evaluation loop reuses one Topic across tens of thousands of
// pairs per tick, so the ~100-byte struct is not copied through two return
// frames per pair. It reports whether out was filled; see
// EvaluateCorrelationInto for the hint and floor contracts.
func (d *Detector) EvaluateInto(t time.Time, k pairs.Key, hint int32, nab, na, nb, n, floor float64, out *Topic) bool {
	var corr float64
	if d.cfg.Measure == pairs.Jaccard {
		corr = pairs.ComputeJaccard(nab, na, nb, n) // inlines; Compute's switch does not
	} else {
		corr = d.cfg.Measure.Compute(nab, na, nb, n)
	}
	return d.EvaluateCorrelationInto(t, k, hint, corr, nab, floor, out)
}

// EvaluateCorrelation scores pair k against a correlation computed by the
// caller — the hook for the paper's alternative correlation notions, such
// as relative-entropy similarity over whole tag-set distributions
// (pairs.CoIndex). nab is still the windowed co-occurrence count, used
// for the significance floor. Semantics otherwise match Evaluate.
//
//enblogue:reference the distribution-mode counterpart of Evaluate, kept for a reference-engine oracle
func (d *Detector) EvaluateCorrelation(t time.Time, k pairs.Key, corr, nab float64) Topic {
	var topic Topic
	d.EvaluateCorrelationInto(t, k, -1, corr, nab, -1, &topic)
	return topic
}

// EvaluateCorrelationInto is EvaluateCorrelation through an out parameter;
// see EvaluateInto. It reports whether out was filled (every field assigned,
// so a reused out carries nothing over from the previous pair).
//
// hint, when >= 0, is a caller-provided stable small integer identity for
// the pair — the engine passes the pair's tracker arena slot, which names
// the same pair for as long as the pair is tracked. The detector caches the
// hint → state resolution (see bySlot) so steady-state evaluation skips the
// map probe; a hint that no longer matches (slot reused, state released) is
// detected by key comparison and merely costs the map fallback it would
// have cost anyway. hint < 0 disables the cache for that call. Results are
// identical either way.
//
// floor is an admission threshold for callers that only keep topics scoring
// strictly above it (a running top-k heap root). The tick's score is
// max(decayed history, current error) and the decayed history is strictly
// below the stored Decay.Value for any positive elapsed time, so
// max(Value, error) upper-bounds the score without computing an
// exponential. When floor >= 0 and that bound is zero or below floor, the
// pair cannot score above the floor: the predictor and seen stamp are
// updated exactly as usual, a positive error still folds into the decayed
// history, but the Topic is not materialised and false is returned. A
// caller that keeps only Score > floor topics therefore selects exactly the
// topics it would have selected with floor < 0 (which disables skipping and
// always fills out).
//
// One deliberate economy: when the bound rejects a pair and its current
// error is zero, the decay is left untouched rather than decayed-in-place
// to t. Exponential decay composes across ticks — value·2^(-(a+b)/hl)
// versus (value·2^(-a/hl))·2^(-b/hl) — so the eventually-read score differs
// only by floating-point rounding in the last ulps, far below any ranking
// threshold; the stored value remains a valid upper bound either way (it
// only ever over-estimates), so admission decisions stay conservative and
// no pair is ever skipped that could have ranked.
func (d *Detector) EvaluateCorrelationInto(t time.Time, k pairs.Key, hint int32, corr, nab, floor float64, out *Topic) bool {
	tn := t.UnixNano()
	if tn > d.curTickNano {
		d.curTickNano = tn
		d.tickCount++
	}

	// Resolve the pair's slab entry: slot-hint cache first, map on a miss.
	var st *state
	var i int32
	firstEval := false
	if hint >= 0 && int(hint) < len(d.bySlot) {
		if j := d.bySlot[hint]; j >= 0 && d.states[j].key == k {
			i, st = j, &d.states[j]
		}
	}
	if st == nil {
		var ok bool
		i, ok = d.index[k]
		if !ok {
			firstEval = true
			st, i = d.alloc(k)
		} else {
			st = &d.states[i]
		}
		if hint >= 0 {
			for int(hint) >= len(d.bySlot) {
				d.bySlot = append(d.bySlot, -1)
			}
			d.bySlot[hint] = i
		}
	}
	st.seenNano = tn

	predicted, ready := d.predict(st, i)
	d.observe(st, i, corr)

	if !ready {
		// A pair first evaluated after round one has an implicit history
		// of zero correlation: its tags never co-occurred before, or it
		// would have been tracked. The jump from 0 to corr is exactly the
		// paper's emergent-topic signal (Eyjafjallajökull + air traffic).
		if firstEval && d.tickCount > 1 {
			predicted = 0
		} else {
			if floor >= 0 {
				if v := st.decay.Value(); v == 0 || v < floor {
					return false
				}
			}
			out.Pair = k
			out.Score = st.decay.AtCachedNano(tn, &d.cache)
			out.Correlation = corr
			out.Predicted = 0
			out.Error = 0
			out.Cooccurrence = nab
			out.At = t
			out.Warmup = true
			return true
		}
	}

	errv := corr - predicted
	if !d.cfg.UpOnly && errv < 0 {
		errv = -errv
	}
	if errv < 0 {
		errv = 0
	}
	// Insignificant pairs contribute no new error but keep their decayed
	// history ("sudden but significant increases").
	if nab < d.cfg.MinCooccurrence {
		errv = 0
	}
	if floor >= 0 {
		upper := st.decay.Value()
		if errv > upper {
			upper = errv
		}
		if upper == 0 || upper < floor {
			if errv > 0 {
				st.decay.UpdateCachedNano(tn, errv, &d.cache)
				st.keepUntilNano = 0
			}
			return false
		}
	}
	out.Pair = k
	out.Correlation = corr
	out.Predicted = predicted
	out.Error = errv
	out.Cooccurrence = nab
	out.At = t
	out.Warmup = false
	out.Score = st.decay.UpdateCachedNano(tn, errv, &d.cache)
	st.keepUntilNano = 0
	return true
}

// ActiveStates returns the number of pairs with detector state.
func (d *Detector) ActiveStates() int { return len(d.index) }

// Sweep drops state for pairs not in keep and for pairs whose decayed score
// at time t has fallen below minScore — both conditions bound memory to
// pairs that still matter.
//
//enblogue:reference the keep-map sweep sweepstale_test checks SweepStale against
func (d *Detector) Sweep(t time.Time, keep map[pairs.Key]bool, minScore float64) {
	for i := range d.states {
		st := &d.states[i]
		if st.key == (pairs.Key{}) {
			continue
		}
		if keep != nil && keep[st.key] {
			continue
		}
		if st.decay.AtCachedNano(t.UnixNano(), nil) < minScore {
			d.release(int32(i))
		}
	}
}

// SweepStale is Sweep without the keep set: it drops state for pairs that
// were not evaluated at tick time t (their seen stamp predates t) and whose
// decayed score has fallen below minScore. An engine that has just
// evaluated a snapshot at t gets exactly Sweep's keep-map semantics — every
// evaluated pair carries seen == t — without building a keep set per tick.
//
// A stale pair lingers until its decayed score crosses minScore, which with
// the paper's 2-day half-life can take weeks of ticks. Its decay state is
// frozen while stale, so the first keep decision caches a conservative
// deadline (Decay.KeepUntilNano) and later sweeps compare an integer
// instead of recomputing the exponential; the actual expiry decision is
// always made by the real decayed read once the deadline has passed, so the
// kept/dropped outcome per tick is identical to reading it every time.
func (d *Detector) SweepStale(t time.Time, minScore float64) {
	tn := t.UnixNano()
	for i := range d.states {
		st := &d.states[i]
		if st.key == (pairs.Key{}) || st.seenNano == tn {
			continue
		}
		if st.keepUntilNano != 0 && tn < st.keepUntilNano {
			continue // provably still at or above minScore
		}
		if st.decay.AtCachedNano(tn, nil) < minScore {
			d.release(int32(i))
		} else {
			st.keepUntilNano = st.decay.KeepUntilNano(minScore)
		}
	}
}
