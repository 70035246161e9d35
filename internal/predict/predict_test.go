package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feed(p Predictor, xs ...float64) {
	for _, x := range xs {
		p.Observe(x)
	}
}

func TestNaive(t *testing.T) {
	p := &Naive{}
	if _, ok := p.Predict(); ok {
		t.Error("naive should not predict before any observation")
	}
	feed(p, 1, 2, 3)
	got, ok := p.Predict()
	if !ok || got != 3 {
		t.Errorf("Predict = %v,%v want 3,true", got, ok)
	}
	p.Reset()
	if _, ok := p.Predict(); ok {
		t.Error("naive should not predict after Reset")
	}
}

func TestMovingAverage(t *testing.T) {
	p := NewMovingAverage(3)
	if _, ok := p.Predict(); ok {
		t.Error("MA should not predict when empty")
	}
	feed(p, 3)
	if got, _ := p.Predict(); got != 3 {
		t.Errorf("MA(3) = %v, want 3", got)
	}
	feed(p, 6, 9)
	if got, _ := p.Predict(); got != 6 {
		t.Errorf("MA(3,6,9) = %v, want 6", got)
	}
	feed(p, 12) // 3 falls out → mean(6,9,12)=9
	if got, _ := p.Predict(); got != 9 {
		t.Errorf("MA after slide = %v, want 9", got)
	}
}

func TestEWMAPredictor(t *testing.T) {
	p := NewEWMA(0.5)
	feed(p, 10)
	if got, ok := p.Predict(); !ok || got != 10 {
		t.Errorf("EWMA first = %v,%v", got, ok)
	}
	feed(p, 0)
	if got, _ := p.Predict(); got != 5 {
		t.Errorf("EWMA = %v, want 5", got)
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	p := NewHolt(0.5, 0.3)
	if _, ok := p.Predict(); ok {
		t.Error("Holt should not predict with no data")
	}
	// A perfectly linear series should be predicted almost exactly once the
	// trend is learned.
	for i := 0; i < 50; i++ {
		p.Observe(float64(2 * i))
	}
	got, ok := p.Predict()
	if !ok {
		t.Fatal("Holt cannot predict after 50 observations")
	}
	if math.Abs(got-100) > 1 {
		t.Errorf("Holt linear forecast = %v, want ≈100", got)
	}
}

func TestOLSExactOnLine(t *testing.T) {
	p := NewOLS(5)
	for i := 0; i < 5; i++ {
		p.Observe(3 + 2*float64(i))
	}
	got, ok := p.Predict()
	if !ok || math.Abs(got-13) > 1e-9 {
		t.Errorf("OLS forecast = %v,%v want 13", got, ok)
	}
	// Constant series → constant forecast.
	p.Reset()
	feed(p, 7, 7, 7)
	if got, _ := p.Predict(); math.Abs(got-7) > 1e-9 {
		t.Errorf("OLS constant forecast = %v, want 7", got)
	}
	// Single observation falls back to that value.
	p.Reset()
	feed(p, 4)
	if got, _ := p.Predict(); got != 4 {
		t.Errorf("OLS single-point forecast = %v, want 4", got)
	}
}

func TestAR1RecoversAutoregression(t *testing.T) {
	p := NewAR1(32)
	// Generate x_t = 1 + 0.5 x_{t-1} exactly; fixed point is 2.
	x := 0.0
	for i := 0; i < 32; i++ {
		x = 1 + 0.5*x
		p.Observe(x)
	}
	got, ok := p.Predict()
	if !ok {
		t.Fatal("AR1 cannot predict")
	}
	want := 1 + 0.5*x
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("AR1 forecast = %v, want %v", got, want)
	}
}

func TestAR1WarmupAndConstant(t *testing.T) {
	p := NewAR1(8)
	if _, ok := p.Predict(); ok {
		t.Error("AR1 should not predict when empty")
	}
	feed(p, 5)
	if got, _ := p.Predict(); got != 5 {
		t.Errorf("AR1 one-obs forecast = %v, want 5", got)
	}
	p.Reset()
	feed(p, 2, 2, 2, 2)
	if got, _ := p.Predict(); math.Abs(got-2) > 1e-9 {
		t.Errorf("AR1 constant forecast = %v, want 2", got)
	}
}

func TestSeasonalLearnsPeriodicSeries(t *testing.T) {
	// A day/night cycle: 0.2 by "day", 0.05 by "night", period 4 for the
	// test. The seasonal predictor forecasts the dip; a moving average
	// would smear it and flag every trough as a shift.
	cycle := []float64{0.2, 0.2, 0.05, 0.05}
	seasonal := NewSeasonal(4, 3)
	ma := NewMovingAverage(4)
	for i := 0; i < 24; i++ {
		x := cycle[i%4]
		seasonal.Observe(x)
		ma.Observe(x)
	}
	// Next observation is cycle[0] = 0.2.
	sPred, ok := seasonal.Predict()
	if !ok || math.Abs(sPred-0.2) > 1e-9 {
		t.Errorf("seasonal forecast = %v, want 0.2", sPred)
	}
	maPred, _ := ma.Predict()
	if math.Abs(maPred-0.2) < math.Abs(sPred-0.2) {
		t.Errorf("MA (%v) outperformed seasonal (%v) on a periodic series", maPred, sPred)
	}
}

func TestSeasonalWarmupFallsBackToNaive(t *testing.T) {
	s := NewSeasonal(8, 2)
	if _, ok := s.Predict(); ok {
		t.Error("empty seasonal predicted")
	}
	feed(s, 1, 2, 3)
	if got, ok := s.Predict(); !ok || got != 3 {
		t.Errorf("warm-up forecast = %v,%v want naive 3", got, ok)
	}
	s.Reset()
	if _, ok := s.Predict(); ok {
		t.Error("reset seasonal predicted")
	}
}

func TestSeasonalAveragesSeasons(t *testing.T) {
	// Period 2, three seasons stored; same-phase values: 1, 3, 5.
	s := NewSeasonal(2, 3)
	feed(s, 1, 10, 3, 10, 5, 10)
	// Next is phase 0; history at lags 2,4,6 → values 5, 3, 1 → mean 3.
	got, ok := s.Predict()
	if !ok || math.Abs(got-3) > 1e-9 {
		t.Errorf("seasonal mean = %v, want 3", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MA zero":         func() { NewMovingAverage(0) },
		"EWMA alpha":      func() { NewEWMA(0) },
		"Holt alpha":      func() { NewHolt(0, 0.1) },
		"Holt beta":       func() { NewHolt(0.1, 2) },
		"OLS window":      func() { NewOLS(1) },
		"AR1 window":      func() { NewAR1(2) },
		"seasonal period": func() { NewSeasonal(1, 2) },
		"seasonal count":  func() { NewSeasonal(4, 0) },
		"unknown kind":    func() { New(Kind(99), Config{}) },
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

func TestKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
		p := New(k, Config{})
		if p == nil {
			t.Errorf("New(%v) = nil", k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind(nope) should fail")
	}
	if Kind(77).String() != "kind(77)" {
		t.Errorf("unknown kind String = %q", Kind(77).String())
	}
}

func TestPredictorsConstantConvergence(t *testing.T) {
	f := func(c8 uint8) bool {
		c := float64(c8)
		for _, k := range AllKinds() {
			p := New(k, Config{Window: 6, Alpha: 0.5, Beta: 0.5})
			for i := 0; i < 40; i++ {
				p.Observe(c)
			}
			got, ok := p.Predict()
			if !ok {
				return false
			}
			if math.IsNaN(got) || math.Abs(got-c) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: forecasts on bounded random series stay finite and within an
// expanded envelope of the observed range.
func TestPredictorsBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range AllKinds() {
			p := New(k, Config{Window: 8})
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < 100; i++ {
				x := rng.Float64()
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
				if v, ok := p.Predict(); ok {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return false
					}
					// OLS/Holt/AR1 may extrapolate beyond the range, but not
					// wildly for values in [0,1].
					if v < lo-5 || v > hi+5 {
						return false
					}
				}
				p.Observe(x)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A step change must yield a large one-step error for every predictor: the
// signal enBlogue scores on.
func TestStepChangeProducesError(t *testing.T) {
	for _, k := range AllKinds() {
		p := New(k, Config{Window: 8})
		for i := 0; i < 20; i++ {
			p.Observe(0.1)
		}
		pred, ok := p.Predict()
		if !ok {
			t.Errorf("%v: not ready after 20 observations", k)
			continue
		}
		if e := math.Abs(0.9 - pred); e < 0.5 {
			t.Errorf("%v: step error = %v, want >= 0.5", k, e)
		}
	}
}

func BenchmarkPredictors(b *testing.B) {
	for _, k := range AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			p := New(k, Config{Window: 8})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Predict()
				p.Observe(float64(i % 13))
			}
		})
	}
}
