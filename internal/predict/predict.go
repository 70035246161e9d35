// Package predict supplies the one-step-ahead time-series predictors used by
// shift detection: "at any point in time we use the previous correlation
// values and try to predict the current ones. If a predicted value is far
// away from the real one then the topic is considered to be emergent."
//
// All predictors consume one observation per evaluation tick and forecast
// the next; they are deliberately small-state so the engine can afford one
// per tracked tag pair.
package predict

import (
	"fmt"
)

// Predictor forecasts the next value of a series one step ahead.
type Predictor interface {
	// Predict returns the forecast for the next observation. ok is false
	// until the predictor has enough history to forecast.
	Predict() (value float64, ok bool)
	// Observe feeds the actual next value after Predict was consulted.
	Observe(x float64)
	// Reset discards all history.
	Reset()
}

// Kind names a predictor implementation.
type Kind int

const (
	// KindNaive forecasts the last observed value (random-walk model).
	KindNaive Kind = iota
	// KindMovingAverage forecasts the mean of the last w observations.
	KindMovingAverage
	// KindEWMA forecasts an exponentially weighted moving average.
	KindEWMA
	// KindHolt is double exponential smoothing: level plus trend, catching
	// drifting correlations without flagging them as shifts.
	KindHolt
	// KindOLS fits a least-squares line to the last w observations and
	// extrapolates one step.
	KindOLS
	// KindAR1 fits a first-order autoregressive model over the last w
	// observations.
	KindAR1
	// KindSeasonal forecasts the mean of the observations exactly one,
	// two, ... seasons ago (period p): with hourly ticks and p = 24 it
	// absorbs the day/night rhythm of news and tweet streams, so the
	// nightly correlation dip is not scored as a shift.
	KindSeasonal
)

var kindNames = map[Kind]string{
	KindNaive:         "naive",
	KindMovingAverage: "ma",
	KindEWMA:          "ewma",
	KindHolt:          "holt",
	KindOLS:           "ols",
	KindAR1:           "ar1",
	KindSeasonal:      "seasonal",
}

// AllKinds returns every predictor kind, in declaration order.
func AllKinds() []Kind {
	return []Kind{KindNaive, KindMovingAverage, KindEWMA, KindHolt, KindOLS, KindAR1, KindSeasonal}
}

// String returns the kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a predictor kind by name.
func ParseKind(name string) (Kind, error) {
	for k, s := range kindNames {
		if s == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("predict: unknown predictor %q", name)
}

// Config parameterises predictor construction.
type Config struct {
	// Window is the history length for MA, OLS and AR1. Zero means 8.
	Window int
	// Alpha is the smoothing factor for EWMA and the level factor for
	// Holt. Zero means 0.3.
	Alpha float64
	// Beta is Holt's trend smoothing factor. Zero means 0.1.
	Beta float64
	// Period is the season length (in observations) for the seasonal
	// predictor. Zero means 24 — one day of hourly ticks.
	Period int
	// Seasons is how many past seasons the seasonal predictor averages.
	// Zero means 3.
	Seasons int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Beta <= 0 || c.Beta > 1 {
		c.Beta = 0.1
	}
	if c.Period <= 0 {
		c.Period = 24
	}
	if c.Seasons <= 0 {
		c.Seasons = 3
	}
	return c
}

// New constructs a predictor of the given kind.
func New(k Kind, cfg Config) Predictor {
	cfg = cfg.withDefaults()
	switch k {
	case KindNaive:
		return &Naive{}
	case KindMovingAverage:
		return NewMovingAverage(cfg.Window)
	case KindEWMA:
		return NewEWMA(cfg.Alpha)
	case KindHolt:
		return NewHolt(cfg.Alpha, cfg.Beta)
	case KindOLS:
		return NewOLS(cfg.Window)
	case KindAR1:
		return NewAR1(cfg.Window)
	case KindSeasonal:
		return NewSeasonal(cfg.Period, cfg.Seasons)
	default:
		panic(fmt.Sprintf("predict: unknown kind %d", int(k)))
	}
}

// Naive forecasts the last observed value.
type Naive struct {
	last float64
	seen bool
}

// Predict implements Predictor.
func (n *Naive) Predict() (float64, bool) { return n.last, n.seen }

// Observe implements Predictor.
func (n *Naive) Observe(x float64) { n.last, n.seen = x, true }

// Reset implements Predictor.
func (n *Naive) Reset() { *n = Naive{} }

// ring is a fixed-capacity FIFO of float64 used by windowed predictors.
type ring struct {
	buf  []float64
	head int
	n    int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]float64, capacity)}
}

func (r *ring) push(x float64) {
	r.buf[(r.head+r.n)%len(r.buf)] = x
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.head = (r.head + 1) % len(r.buf)
	}
}

// at returns the i-th oldest stored value, 0 ≤ i < n.
func (r *ring) at(i int) float64 { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring) len() int { return r.n }

func (r *ring) reset() { r.head, r.n = 0, 0 }

// MovingAverage forecasts the mean of the last w observations.
type MovingAverage struct {
	r   *ring
	sum float64
}

// NewMovingAverage returns a moving-average predictor over w observations.
// It panics if w < 1.
func NewMovingAverage(w int) *MovingAverage {
	if w < 1 {
		panic("predict: moving average window < 1")
	}
	return &MovingAverage{r: newRing(w)}
}

// Predict implements Predictor.
func (m *MovingAverage) Predict() (float64, bool) {
	if m.r.len() == 0 {
		return 0, false
	}
	return m.sum / float64(m.r.len()), true
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(x float64) {
	if m.r.len() == len(m.r.buf) {
		m.sum -= m.r.at(0)
	}
	m.r.push(x)
	m.sum += x
}

// Reset implements Predictor.
func (m *MovingAverage) Reset() { m.r.reset(); m.sum = 0 }

// EWMA forecasts an exponentially weighted moving average with factor alpha.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA predictor. It panics if alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("predict: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Predict implements Predictor.
func (e *EWMA) Predict() (float64, bool) { return e.value, e.seen }

// Observe implements Predictor.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.value, e.seen = x, true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Reset implements Predictor.
func (e *EWMA) Reset() { e.value, e.seen = 0, false }

// Holt is double exponential smoothing (level + trend). A steadily growing
// correlation is absorbed into the trend term and therefore does not count
// as a sudden shift — exactly the paper's distinction between predictable
// growth and unpredictable jumps.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	n            int
	prev         float64
}

// NewHolt returns a Holt linear predictor. It panics on factors outside
// (0, 1].
func NewHolt(alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("predict: Holt factors %v/%v outside (0,1]", alpha, beta))
	}
	return &Holt{alpha: alpha, beta: beta}
}

// Predict implements Predictor.
func (h *Holt) Predict() (float64, bool) {
	if h.n < 2 {
		if h.n == 1 {
			return h.prev, true
		}
		return 0, false
	}
	return h.level + h.trend, true
}

// Observe implements Predictor.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.prev = x
		h.n = 1
		return
	case 1:
		h.level = x
		h.trend = x - h.prev
		h.n = 2
		return
	}
	prevLevel := h.level
	h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
}

// Reset implements Predictor.
func (h *Holt) Reset() { h.level, h.trend, h.prev, h.n = 0, 0, 0, 0 }

// OLS fits an ordinary-least-squares line to the last w observations
// (x = 0..w-1) and extrapolates one step ahead.
type OLS struct {
	r *ring
}

// NewOLS returns a linear-regression predictor over w observations. It
// panics if w < 2.
func NewOLS(w int) *OLS {
	if w < 2 {
		panic("predict: OLS window < 2")
	}
	return &OLS{r: newRing(w)}
}

// Predict implements Predictor.
func (o *OLS) Predict() (float64, bool) {
	n := o.r.len()
	switch n {
	case 0:
		return 0, false
	case 1:
		return o.r.at(0), true
	}
	// Fit y = a + b·x over x = 0..n-1.
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		x := float64(i)
		y := o.r.at(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return sy / fn, true
	}
	b := (fn*sxy - sx*sy) / den
	a := (sy - b*sx) / fn
	return a + b*fn, true
}

// Observe implements Predictor.
func (o *OLS) Observe(x float64) { o.r.push(x) }

// Reset implements Predictor.
func (o *OLS) Reset() { o.r.reset() }

// AR1 fits x_t = c + φ·x_{t-1} by least squares over the last w
// observations and forecasts one step ahead. φ is clamped to [-1, 1] for
// stability.
type AR1 struct {
	r *ring
}

// NewAR1 returns an AR(1) predictor over w observations. It panics if w < 3.
func NewAR1(w int) *AR1 {
	if w < 3 {
		panic("predict: AR1 window < 3")
	}
	return &AR1{r: newRing(w)}
}

// Predict implements Predictor.
func (a *AR1) Predict() (float64, bool) {
	n := a.r.len()
	switch {
	case n == 0:
		return 0, false
	case n < 3:
		return a.r.at(n - 1), true
	}
	// Regress x_t on x_{t-1} over the stored window.
	var sx, sy, sxx, sxy float64
	m := n - 1
	for i := 0; i < m; i++ {
		x := a.r.at(i)
		y := a.r.at(i + 1)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fm := float64(m)
	den := fm*sxx - sx*sx
	last := a.r.at(n - 1)
	if den == 0 {
		return last, true
	}
	phi := (fm*sxy - sx*sy) / den
	if phi > 1 {
		phi = 1
	} else if phi < -1 {
		phi = -1
	}
	c := (sy - phi*sx) / fm
	return c + phi*last, true
}

// Observe implements Predictor.
func (a *AR1) Observe(x float64) { a.r.push(x) }

// Reset implements Predictor.
func (a *AR1) Reset() { a.r.reset() }

// Seasonal forecasts the average of the observations one, two, ... seasons
// back (lag p, 2p, ...). Until a full season of history exists it falls
// back to the last observed value (naive), so warm-up behaviour matches
// the other predictors.
type Seasonal struct {
	period  int
	seasons int
	r       *ring
	last    float64
	n       int
}

// NewSeasonal returns a seasonal predictor with the given period and number
// of seasons to average. It panics if period < 2 or seasons < 1.
func NewSeasonal(period, seasons int) *Seasonal {
	if period < 2 {
		panic("predict: seasonal period < 2")
	}
	if seasons < 1 {
		panic("predict: seasonal seasons < 1")
	}
	return &Seasonal{
		period:  period,
		seasons: seasons,
		r:       newRing(period * seasons),
	}
}

// Predict implements Predictor.
func (s *Seasonal) Predict() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	if s.n < s.period {
		return s.last, true // no full season yet: naive fallback
	}
	// The forecast target is the observation s.n; same-phase historical
	// observations sit at lags period, 2·period, ... from it.
	var sum float64
	cnt := 0
	stored := s.r.len()
	for lag := s.period; lag <= stored; lag += s.period {
		sum += s.r.at(stored - lag)
		cnt++
	}
	if cnt == 0 {
		return s.last, true
	}
	return sum / float64(cnt), true
}

// Observe implements Predictor.
func (s *Seasonal) Observe(x float64) {
	s.r.push(x)
	s.last = x
	s.n++
}

// Reset implements Predictor.
func (s *Seasonal) Reset() {
	s.r.reset()
	s.last = 0
	s.n = 0
}
