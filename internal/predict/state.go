package predict

import "fmt"

// State is the dynamic (per-pair) state of a predictor, kind-agnostic so a
// snapshot encoder handles every predictor with one record shape. Which
// fields are meaningful depends on the concrete kind:
//
//	Naive:          F1=last, Seen
//	MovingAverage:  Ring, F1=sum (the incrementally maintained sum is stored
//	                verbatim — recomputing it would lose rounding history)
//	EWMA:           F1=value, Seen
//	Holt:           F1=level, F2=trend, F3=prev, N
//	OLS, AR1:       Ring
//	Seasonal:       Ring, F1=last, N
//
// Static parameters (window length, alpha, period, ...) are configuration
// and travel separately: Restore targets a predictor freshly constructed
// with the exporter's configuration.
type State struct {
	Ring       []float64 // windowed history, oldest-first
	F1, F2, F3 float64
	N          int
	Seen       bool
}

// ringOf returns p's history ring, or nil for kinds without one.
func ringOf(p Predictor) *ring {
	switch v := p.(type) {
	case *MovingAverage:
		return v.r
	case *OLS:
		return v.r
	case *AR1:
		return v.r
	case *Seasonal:
		return v.r
	}
	return nil
}

// HistoryLen returns the length of the Ring that Export gives for p: how
// much of a shared destination p's export takes.
func HistoryLen(p Predictor) int {
	if r := ringOf(p); r != nil {
		return r.len()
	}
	return 0
}

// restoreRing replays vals into r oldest-first. More values than r's
// capacity is an error (the exporter had a larger configured window).
func restoreRing(r *ring, vals []float64) error {
	if len(vals) > len(r.buf) {
		return fmt.Errorf("predict: restore %d ring values into capacity %d", len(vals), len(r.buf))
	}
	r.reset()
	for _, v := range vals {
		r.push(v)
	}
	return nil
}

// Export returns p's dynamic state. The ring, if p keeps one, is copied
// oldest-first into dst[:HistoryLen(p)], which the returned Ring aliases, so
// an export of many predictors fills one backing array. It panics on
// predictor types it does not know, which indicates a programming error (a
// new kind added without a state mapping).
func Export(p Predictor, dst []float64) State {
	var s State
	if r := ringOf(p); r != nil {
		s.Ring = dst[:r.len():r.len()]
		for i := range s.Ring {
			s.Ring[i] = r.at(i)
		}
	}
	switch v := p.(type) {
	case *Naive:
		s.F1, s.Seen = v.last, v.seen
	case *MovingAverage:
		s.F1 = v.sum
	case *EWMA:
		s.F1, s.Seen = v.value, v.seen
	case *Holt:
		s.F1, s.F2, s.F3, s.N = v.level, v.trend, v.prev, v.n
	case *OLS, *AR1: // the ring is all their state
	case *Seasonal:
		s.F1, s.N = v.last, v.n
	default:
		panic(fmt.Sprintf("predict: export of unknown predictor type %T", p))
	}
	return s
}

// Restore overwrites p's dynamic state with s. p must be of the same kind
// and configuration as the exporter; out-of-range state is an error.
func Restore(p Predictor, s State) error {
	switch v := p.(type) {
	case *Naive:
		v.last, v.seen = s.F1, s.Seen
	case *MovingAverage:
		if err := restoreRing(v.r, s.Ring); err != nil {
			return err
		}
		v.sum = s.F1
	case *EWMA:
		v.value, v.seen = s.F1, s.Seen
	case *Holt:
		v.level, v.trend, v.prev, v.n = s.F1, s.F2, s.F3, s.N
	case *OLS:
		return restoreRing(v.r, s.Ring)
	case *AR1:
		return restoreRing(v.r, s.Ring)
	case *Seasonal:
		if err := restoreRing(v.r, s.Ring); err != nil {
			return err
		}
		v.last, v.n = s.F1, s.N
	default:
		return fmt.Errorf("predict: restore into unknown predictor type %T", p)
	}
	return nil
}
