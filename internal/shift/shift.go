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
	// logScore is the pair's decayed error maximum in log space on the
	// unix epoch: log2(score at t) + t/halfLife, constant while no error
	// beats the decayed history, so the score at tick t is
	// 2^(logScore − t/halfLife). −Inf means no history. Only a winning
	// error moves it; a read, a losing visit or a floor rejection never
	// does, so the stored bits do not depend on which pairs were visited.
	logScore float64
	// seenNano is the unix-nano stamp of the last evaluation tick that
	// touched this pair — an int64 rather than a time.Time so the per-pair
	// store on the evaluation hot loop is barrier-free.
	seenNano int64
}

// Detector maintains per-pair predictors and decayed score maxima. It is
// not safe for concurrent use.
type Detector struct {
	cfg      Config
	useNaive bool
	// halfLife is cfg.HalfLife in nanoseconds as a float: t/halfLife is a
	// time in half-lives since the unix epoch.
	halfLife float64
	// index maps a pair to its slab position; states is the slab itself
	// with free entries (zero key) chained through free. preds carries the
	// non-naive predictors parallel to states (see state.naive); it stays
	// nil under the default naive predictor.
	index  map[pairs.Key]int32
	states []state
	preds  []predict.Predictor
	free   []int32
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
	// time.After's monotonic-clock resolution. curQ is curTickNano in
	// half-lives (curTickNano / halfLife), computed once per round.
	curTickNano int64
	curQ        float64
	tickCount   int
}

// NewDetector returns a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	c := cfg.withDefaults()
	return &Detector{
		cfg:      c,
		useNaive: c.Predictor == predict.KindNaive,
		halfLife: float64(c.HalfLife),
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
	*st = state{key: k, logScore: math.Inf(-1)}
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
		d.advance(tn)
	}
}

// advance opens evaluation round tn.
func (d *Detector) advance(tn int64) {
	d.curTickNano = tn
	d.curQ = float64(tn) / d.halfLife
	d.tickCount++
}

// binade returns the binary exponent e of a positive normal x, as a float:
// 2^e <= x < 2^(e+1). The evaluation hot loop compares it against log-space
// scores so that most decisions need neither Exp2 nor Log2; it must stay
// small enough to inline. A subnormal x reads as −1023, for which only the
// upper bound x < 2^(e+1) holds, so callers guard that case.
func binade(x float64) float64 {
	return float64(int(math.Float64bits(x)>>52&0x7ff) - 1023)
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
// max(2^hist, error), where hist = logScore − t/halfLife is the log2 of the
// decayed history. A positive error that beats the history is folded into
// logScore for every evaluated pair, before and regardless of the floor, so
// the floor decides only what is returned: when floor >= 0 and the score is
// zero or below floor, the Topic is not materialised and false is returned.
// Detector state is therefore the same bits whatever floor a caller passes,
// and a caller that keeps only Score > floor topics selects exactly the
// topics it would have selected with floor < 0 (which disables skipping and
// always fills out).
//
// Most comparisons are decided by binary exponent (see binade), so Log2 runs
// only when an error may beat the history and Exp2 only when the history may
// be the score and may reach the floor.
func (d *Detector) EvaluateCorrelationInto(t time.Time, k pairs.Key, hint int32, corr, nab, floor float64, out *Topic) bool {
	tn := t.UnixNano()
	if tn > d.curTickNano {
		d.advance(tn)
	}
	q := d.curQ
	if tn != d.curTickNano {
		q = float64(tn) / d.halfLife
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

	// A pair without a forecast warms up silently, scoring its history
	// alone — unless it is first evaluated after round one: then it has an
	// implicit history of zero correlation, since its tags never co-occurred
	// before or it would have been tracked. The jump from 0 to corr is
	// exactly the paper's emergent-topic signal (Eyjafjallajökull + air
	// traffic).
	warmup := !ready && !(firstEval && d.tickCount > 1)
	if !ready {
		predicted = 0
	}
	var errv float64
	if !warmup {
		errv = corr - predicted
		if !d.cfg.UpOnly && errv < 0 {
			errv = -errv
		}
		// Insignificant pairs contribute no new error but keep their
		// decayed history ("sudden but significant increases").
		if errv < 0 || nab < d.cfg.MinCooccurrence {
			errv = 0
		}
	}

	// Fold the error into the history, skipping the logarithm when the
	// error's binade lies wholly below hist, and take the score: the error
	// itself when its binade lies above hist, max(2^hist, errv) otherwise.
	hist := st.logScore - q
	score := -1.0
	if errv > 0 {
		e := binade(errv)
		if e+1 > hist {
			if l := math.Log2(errv) + q; l > st.logScore {
				st.logScore = l
			}
		}
		if e >= hist && errv >= 0x1p-1022 {
			score = errv
		}
	}
	if score < 0 {
		// A history below 2^fb, where fb is the exponent of floor's
		// predecessor (the largest integer with 2^fb < floor), scores below
		// the floor without an exponential. Zero and subnormal floors have
		// no such bound.
		if floor >= 0x1p-1022 && errv < floor && hist < binade(math.Float64frombits(math.Float64bits(floor)-1)) {
			return false
		}
		if score = math.Exp2(hist); errv > score {
			score = errv
		}
	}
	if floor >= 0 && (score == 0 || score < floor) {
		return false
	}
	out.Pair = k
	out.Score = score
	out.Correlation = corr
	out.Predicted = predicted
	out.Error = errv
	out.Cooccurrence = nab
	out.At = t
	out.Warmup = warmup
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
	cut := d.sweepCut(t.UnixNano(), minScore)
	for i := range d.states {
		st := &d.states[i]
		if st.key == (pairs.Key{}) {
			continue
		}
		if keep != nil && keep[st.key] {
			continue
		}
		if st.logScore < cut {
			d.release(int32(i))
		}
	}
}

// SweepStale is Sweep without the keep set: it drops state for pairs that
// were not evaluated at tick time t (their seen stamp predates t) and whose
// decayed score has fallen below minScore. An engine that has just
// evaluated a snapshot at t gets exactly Sweep's keep-map semantics — every
// evaluated pair carries seen == t — without building a keep set per tick.
func (d *Detector) SweepStale(t time.Time, minScore float64) {
	tn := t.UnixNano()
	cut := d.sweepCut(tn, minScore)
	for i := range d.states {
		st := &d.states[i]
		if st.key == (pairs.Key{}) || st.seenNano == tn {
			continue
		}
		if st.logScore < cut {
			d.release(int32(i))
		}
	}
}

// sweepCut is the log-space expiry threshold of both sweeps: a pair whose
// decayed score at tn is below minScore has logScore below it. A pair with
// no history (−Inf) falls below any positive minScore; a non-positive
// minScore gives −Inf or NaN, which expires nothing.
func (d *Detector) sweepCut(tn int64, minScore float64) float64 {
	return math.Log2(minScore) + float64(tn)/d.halfLife
}
