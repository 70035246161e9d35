package shift

import (
	"math"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func newDet(t *testing.T) *Detector {
	t.Helper()
	return NewDetector(Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindMovingAverage,
		PredictorConfig: predict.Config{Window: 4},
		HalfLife:        48 * time.Hour,
		MinCooccurrence: 1,
	})
}

// score returns pair k's decayed score at time t without updating state.
func score(d *Detector, t time.Time, k pairs.Key) float64 {
	i, ok := d.index[k]
	if !ok {
		return 0
	}
	return math.Exp2(d.states[i].logScore - float64(t.UnixNano())/d.halfLife)
}

func TestDefaults(t *testing.T) {
	d := NewDetector(Config{})
	cfg := d.cfg
	if cfg.HalfLife != DefaultHalfLife {
		t.Errorf("HalfLife = %v, want %v", cfg.HalfLife, DefaultHalfLife)
	}
	if cfg.MinCooccurrence != 2 {
		t.Errorf("MinCooccurrence = %v, want 2", cfg.MinCooccurrence)
	}
}

func TestWarmupThenScore(t *testing.T) {
	d := newDet(t)
	k := pairs.MakeKey("a", "b")
	top := d.Evaluate(t0, k, 5, 10, 10, 100)
	if !top.Warmup {
		t.Error("first tick should be warmup")
	}
	top = d.Evaluate(t0.Add(time.Hour), k, 5, 10, 10, 100)
	if top.Warmup {
		t.Error("second tick should not be warmup")
	}
	// Identical correlation → zero error.
	if top.Error != 0 {
		t.Errorf("steady error = %v, want 0", top.Error)
	}
}

func TestShiftRaisesScore(t *testing.T) {
	d := newDet(t)
	k := pairs.MakeKey("iceland", "air-traffic")
	// Stable low correlation for 10 ticks.
	ts := t0
	for i := 0; i < 10; i++ {
		d.Evaluate(ts, k, 1, 50, 20, 500)
		ts = ts.Add(time.Hour)
	}
	before := score(d, ts, k)
	// Sudden jump in co-occurrence.
	top := d.Evaluate(ts, k, 18, 50, 20, 500)
	if top.Error <= 0 {
		t.Fatalf("shift error = %v, want > 0", top.Error)
	}
	if top.Score <= before {
		t.Errorf("score %v did not rise above pre-shift %v", top.Score, before)
	}
	wantCorr := pairs.Jaccard.Compute(18, 50, 20, 500)
	if math.Abs(top.Correlation-wantCorr) > 1e-12 {
		t.Errorf("Correlation = %v, want %v", top.Correlation, wantCorr)
	}
}

func TestPredictableGrowthScoresLow(t *testing.T) {
	// With a trend-aware predictor (Holt), a steadily growing correlation
	// should accumulate much less score than an equally sized sudden jump.
	cfgBase := Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindHolt,
		PredictorConfig: predict.Config{Alpha: 0.6, Beta: 0.3},
		MinCooccurrence: 1,
	}
	gradual := NewDetector(cfgBase)
	sudden := NewDetector(cfgBase)
	kg := pairs.MakeKey("g", "h")
	ks := pairs.MakeKey("s", "t")
	ts := t0
	var lastGradual, lastSudden Topic
	for i := 0; i < 20; i++ {
		// Gradual: co-occurrence grows by 1 per tick.
		lastGradual = gradual.Evaluate(ts, kg, float64(i+1), 40, 40, 400)
		// Sudden: flat at 1 until the final tick jumps to 20.
		nab := 1.0
		if i == 19 {
			nab = 20
		}
		lastSudden = sudden.Evaluate(ts, ks, nab, 40, 40, 400)
		ts = ts.Add(time.Hour)
	}
	if lastSudden.Score <= 2*lastGradual.Score {
		t.Errorf("sudden score %v should dominate gradual score %v",
			lastSudden.Score, lastGradual.Score)
	}
}

func TestScoreDecaysWithHalfLife(t *testing.T) {
	d := NewDetector(Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindNaive,
		HalfLife:        time.Hour,
		MinCooccurrence: 1,
	})
	k := pairs.MakeKey("a", "b")
	d.Evaluate(t0, k, 0, 10, 10, 100)
	top := d.Evaluate(t0.Add(time.Minute), k, 10, 10, 10, 100) // jump
	if top.Error <= 0 {
		t.Fatal("expected nonzero error after jump")
	}
	s0 := top.Score
	s1 := score(d, t0.Add(time.Minute+time.Hour), k)
	if math.Abs(s1-s0/2) > 1e-9 {
		t.Errorf("after one half-life score = %v, want %v", s1, s0/2)
	}
}

func TestScoreIsMaxOfCurrentAndDecayedPast(t *testing.T) {
	d := NewDetector(Config{
		Measure:         pairs.Overlap,
		Predictor:       predict.KindNaive,
		HalfLife:        time.Hour,
		MinCooccurrence: 1,
	})
	k := pairs.MakeKey("a", "b")
	d.Evaluate(t0, k, 1, 10, 10, 100) // warmup, corr=0.1
	// Big jump: corr 0.1 → 0.9, error 0.8.
	big := d.Evaluate(t0.Add(time.Minute), k, 9, 10, 10, 100)
	if math.Abs(big.Error-0.8) > 1e-9 {
		t.Fatalf("big error = %v, want 0.8", big.Error)
	}
	// Shortly after, a small wiggle: decayed past error should dominate.
	small := d.Evaluate(t0.Add(2*time.Minute), k, 8, 10, 10, 100)
	if small.Score <= small.Error {
		t.Errorf("score %v should exceed current error %v (dampened past)",
			small.Score, small.Error)
	}
	if small.Score >= big.Score {
		t.Errorf("score %v should have decayed below %v", small.Score, big.Score)
	}
}

func TestMinCooccurrenceSuppressesNoise(t *testing.T) {
	d := NewDetector(Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindNaive,
		MinCooccurrence: 5,
	})
	k := pairs.MakeKey("noise", "blip")
	d.Evaluate(t0, k, 0, 3, 3, 100)
	// A pair of singleton tags suddenly co-occurring: corr jumps to 1 but
	// support (nab=2) is below the significance floor.
	top := d.Evaluate(t0.Add(time.Hour), k, 2, 2, 2, 100)
	if top.Error != 0 || top.Score != 0 {
		t.Errorf("insignificant pair scored: err=%v score=%v", top.Error, top.Score)
	}
}

func TestUpOnly(t *testing.T) {
	up := NewDetector(Config{
		Measure: pairs.Overlap, Predictor: predict.KindNaive,
		MinCooccurrence: 1, UpOnly: true,
	})
	both := NewDetector(Config{
		Measure: pairs.Overlap, Predictor: predict.KindNaive,
		MinCooccurrence: 1, UpOnly: false,
	})
	k := pairs.MakeKey("a", "b")
	// corr 0.9 then collapse to 0.1.
	for _, d := range []*Detector{up, both} {
		d.Evaluate(t0, k, 9, 10, 10, 100)
	}
	tu := up.Evaluate(t0.Add(time.Hour), k, 1, 10, 10, 100)
	tb := both.Evaluate(t0.Add(time.Hour), k, 1, 10, 10, 100)
	if tu.Error != 0 {
		t.Errorf("UpOnly error on collapse = %v, want 0", tu.Error)
	}
	if math.Abs(tb.Error-0.8) > 1e-9 {
		t.Errorf("two-sided error on collapse = %v, want 0.8", tb.Error)
	}
}

func TestNewPairMidStreamScoresAgainstZeroHistory(t *testing.T) {
	d := NewDetector(Config{
		Measure:         pairs.Overlap,
		Predictor:       predict.KindMovingAverage,
		PredictorConfig: predict.Config{Window: 4},
		MinCooccurrence: 1,
	})
	// Round 1: some other pair warms the detector.
	d.Evaluate(t0, pairs.MakeKey("a", "b"), 2, 10, 10, 100)
	// Round 5: a brand-new pair appears at full correlation (its tags only
	// ever co-occur — the Eyjafjallajökull case). Previous correlation is
	// implicitly zero, so the whole corr is the shift.
	top := d.Evaluate(t0.Add(5*time.Hour), pairs.MakeKey("volcano", "air-traffic"), 8, 8, 8, 200)
	if top.Warmup {
		t.Fatal("mid-stream pair treated as warmup")
	}
	if math.Abs(top.Error-1) > 1e-9 {
		t.Errorf("first-eval error = %v, want 1 (corr 1 vs implicit 0)", top.Error)
	}
	// But on the detector's FIRST round, everything is warmup.
	d2 := NewDetector(Config{
		Measure: pairs.Overlap, Predictor: predict.KindNaive, MinCooccurrence: 1,
	})
	if top := d2.Evaluate(t0, pairs.MakeKey("x", "y"), 5, 5, 5, 50); !top.Warmup {
		t.Error("first-round pair not treated as warmup")
	}
}

func TestSweep(t *testing.T) {
	d := NewDetector(Config{
		Measure: pairs.Jaccard, Predictor: predict.KindNaive,
		HalfLife: time.Hour, MinCooccurrence: 1,
	})
	k1 := pairs.MakeKey("a", "b")
	k2 := pairs.MakeKey("c", "d")
	k3 := pairs.MakeKey("e", "f")
	for _, k := range []pairs.Key{k1, k2, k3} {
		d.Evaluate(t0, k, 0, 10, 10, 100)
		d.Evaluate(t0.Add(time.Minute), k, 5, 10, 10, 100)
	}
	if d.ActiveStates() != 3 {
		t.Fatalf("ActiveStates = %d, want 3", d.ActiveStates())
	}
	// After many half-lives, scores are ~0; sweep with keep={k1}.
	later := t0.Add(100 * time.Hour)
	d.Sweep(later, map[pairs.Key]bool{k1: true}, 1e-6)
	if d.ActiveStates() != 1 {
		t.Errorf("after Sweep: %d states, want 1 (kept)", d.ActiveStates())
	}
	if score(d, later, k2) != 0 {
		t.Error("swept pair still has score")
	}
}

// The Figure-1 scenario as a unit test: a popular tag's solo burst does not
// move the pair score, but a genuine correlation shift does.
func TestFigure1Semantics(t *testing.T) {
	d := NewDetector(Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindMovingAverage,
		PredictorConfig: predict.Config{Window: 4},
		MinCooccurrence: 1,
	})
	k := pairs.MakeKey("t1", "t2")
	ts := t0
	// Phase 1: stable overlap 2 of t1=50, t2=10.
	for i := 0; i < 8; i++ {
		d.Evaluate(ts, k, 2, 50, 10, 500)
		ts = ts.Add(time.Hour)
	}
	// Phase 2: t1 bursts alone (na 50→150), overlap unchanged.
	var burstTop Topic
	for i := 0; i < 4; i++ {
		burstTop = d.Evaluate(ts, k, 2, 150, 10, 600)
		ts = ts.Add(time.Hour)
	}
	// Phase 3: true shift — overlap explodes.
	shiftTop := d.Evaluate(ts, k, 9, 150, 10, 600)
	if shiftTop.Error <= 4*burstTop.Error {
		t.Errorf("true shift error %v should dominate solo-burst error %v",
			shiftTop.Error, burstTop.Error)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	d := NewDetector(Config{
		Measure:         pairs.Jaccard,
		Predictor:       predict.KindMovingAverage,
		PredictorConfig: predict.Config{Window: 8},
		MinCooccurrence: 1,
	})
	keys := make([]pairs.Key, 256)
	for i := range keys {
		keys[i] = pairs.MakeKey("seed", "tag"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		d.Evaluate(t0.Add(time.Duration(i)*time.Second), k, float64(i%7), 50, 30, 1000)
	}
}
