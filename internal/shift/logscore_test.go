package shift

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
)

// The score must be the paper's "maximum of the current prediction error
// and the prediction errors from the past, dampened" with the half-life:
// over 200 random errors at random gaps it equals a brute-force maximum of
// every decayed past error, to within 1e-9 relative.
func TestScoreIsMaxOfDecayedHistory(t *testing.T) {
	const half = time.Hour
	d := NewDetector(Config{Predictor: predict.KindNaive, HalfLife: half, MinCooccurrence: 1})
	k := pairs.MakeKey("a", "b")
	type obs struct {
		at time.Time
		v  float64
	}
	rng := rand.New(rand.NewSource(7))
	var hist []obs
	cur := t0
	d.EvaluateCorrelation(cur, k, rng.Float64()*10, 1) // warm-up
	for i := 0; i < 200; i++ {
		cur = cur.Add(time.Duration(rng.Intn(120)) * time.Minute)
		top := d.EvaluateCorrelation(cur, k, rng.Float64()*10, 1)
		hist = append(hist, obs{cur, top.Error})
		var want float64
		for _, h := range hist {
			want = max(want, h.v*math.Exp2(-cur.Sub(h.at).Seconds()/half.Seconds()))
		}
		if math.Abs(top.Score-want) > 1e-9*want {
			t.Fatalf("step %d: score %v, brute-force decayed max %v", i, top.Score, want)
		}
	}
}

// fuzzCorrs are the correlations FuzzDetectorFloorIndependent draws: zero,
// subnormals, the smallest normal, exact powers of two, ordinary and huge
// values, and negatives, so errors reach every binade branch of the
// evaluation. Magnitudes stay at or below 1e300, so no error overflows.
var fuzzCorrs = []float64{
	0, 5e-324, 0x1p-1022 / 3, 0x1p-1022, 0x1p-1000, 1e-300, 1e-12, 0.001,
	0.0625, 0.1, 0.25, 1.0 / 3, 0.5, 0.7, 1, 2, 1e10, 1e300,
	-5e-324, -0.5, -1, -1e300,
}

// fuzzFloors are the fixed admission floors; fuzzFloor adds the reference
// score itself and its two neighbours, the floor's exact boundary.
var fuzzFloors = []float64{-1, 0, 5e-324, 0x1p-1022, 1e-9, 0.001, 0.1, 0.25, 0.5, 1, 1e300}

func fuzzFloor(sel byte, ref float64) float64 {
	switch n := int(sel) % (len(fuzzFloors) + 3); n - len(fuzzFloors) {
	case 0:
		return ref
	case 1:
		return math.Nextafter(ref, math.Inf(1))
	case 2:
		return math.Nextafter(ref, math.Inf(-1))
	default:
		return fuzzFloors[n]
	}
}

// detectorRun is one generated input of FuzzDetectorFloorIndependent.
type detectorRun struct {
	cfg       Config
	gap       time.Duration
	restoreAt int
	// ticks holds, per tick, the evaluations in order: key index, corr,
	// nab and the floored detector's floor selector.
	ticks [][]fuzzEval
}

type fuzzEval struct {
	key       int
	corr, nab float64
	floorSel  byte
}

// genDetectorRun decodes data: three header bytes choose the configuration,
// the tick gap and the restore tick; then a byte >= 0xf0 closes a tick and
// any other byte starts a three-byte evaluation (key, correlation,
// co-occurrence and floor).
func genDetectorRun(data []byte) detectorRun {
	var r detectorRun
	if len(data) < 3 {
		return r
	}
	h := data[0]
	r.cfg = Config{
		HalfLife:        []time.Duration{time.Hour, 48 * time.Minute, DefaultHalfLife, 90 * time.Second}[h&3],
		UpOnly:          h&4 != 0,
		MinCooccurrence: 1 + float64(h>>3&1),
		Predictor:       predict.KindNaive,
	}
	if h&16 != 0 {
		r.cfg.Predictor = predict.KindMovingAverage
		r.cfg.PredictorConfig = predict.Config{Window: 2}
	}
	r.gap = []time.Duration{time.Minute, 17 * time.Minute, time.Hour, 7 * time.Hour, 72 * time.Hour}[int(data[1])%5]
	r.restoreAt = int(data[2] % 16)
	var tick []fuzzEval
	for i := 3; i < len(data); {
		if data[i] >= 0xf0 {
			r.ticks = append(r.ticks, tick)
			tick = nil
			i++
			continue
		}
		if i+2 >= len(data) {
			break
		}
		b := data[i+2]
		tick = append(tick, fuzzEval{
			key:      int(data[i]) % 8,
			corr:     fuzzCorrs[int(data[i+1])%len(fuzzCorrs)],
			nab:      []float64{0, 1, 2, 5}[b&3],
			floorSel: b >> 2,
		})
		i += 3
	}
	r.ticks = append(r.ticks, tick)
	return r
}

// FuzzDetectorFloorIndependent runs generated ticks through three
// detectors: one unfloored (floor −1), one under fuzz-chosen floors
// (including the reference score itself and its neighbours), and one
// Sharded at 3 shards under each shard's running best score as its floor,
// restored from ExportState at a fuzz-chosen tick. After every tick and
// stale sweep the three exports must be the same bits, and every topic a
// floored detector fills must equal the unfloored one's, filled exactly
// when its score is positive and not below the floor.
func FuzzDetectorFloorIndependent(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 4, 5, 2, 12, 9, 0xf0, 1, 13, 6, 2, 0, 7, 0xf0, 1, 3, 200})
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 40+rng.Intn(400))
		for i := range data {
			if data[i] = byte(rng.Intn(256)); rng.Intn(8) == 0 {
				data[i] = 0xf0
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := genDetectorRun(data)
		if len(r.ticks) == 0 {
			return
		}
		keys := make([]pairs.Key, 8)
		for i := range keys {
			keys[i] = pairs.MakeKey(fmt.Sprintf("k%d", i), "x")
		}
		ref, floored := NewSharded(1, r.cfg), NewSharded(1, r.cfg)
		sharded := NewSharded(3, r.cfg)
		for ti, evals := range r.ticks {
			if ti == r.restoreAt {
				restored := NewSharded(3, r.cfg)
				if err := restored.RestoreState(sharded.ExportState()); err != nil {
					t.Fatalf("tick %d: restore: %v", ti, err)
				}
				sharded = restored
			}
			at := t0.Add(time.Duration(ti) * r.gap)
			if len(evals) > 0 {
				sharded.BeginTick(at)
			}
			var best [3]float64
			seen := map[int]bool{}
			for _, ev := range evals {
				if seen[ev.key] {
					continue // one evaluation per pair per tick
				}
				seen[ev.key] = true
				k := keys[ev.key]
				var want, got Topic
				ref.Shard(0).EvaluateCorrelationInto(at, k, -1, ev.corr, ev.nab, -1, &want)
				check := func(name string, filled bool, floor float64) {
					wantFill := floor < 0 || !(want.Score == 0 || want.Score < floor)
					if filled != wantFill {
						t.Fatalf("tick %d pair %d: %s filled=%v at floor %v, want %v (score %v)",
							ti, ev.key, name, filled, floor, wantFill, want.Score)
					}
					if filled && got != want {
						t.Fatalf("tick %d pair %d: %s topic %+v, unfloored %+v", ti, ev.key, name, got, want)
					}
				}
				floor := fuzzFloor(ev.floorSel, want.Score)
				check("floored", floored.Shard(0).EvaluateCorrelationInto(at, k, int32(ev.key), ev.corr, ev.nab, floor, &got), floor)
				s := k.Shard(3)
				filled := sharded.Shard(s).EvaluateCorrelationInto(at, k, int32(ev.key), ev.corr, ev.nab, best[s], &got)
				check("sharded", filled, best[s])
				if filled {
					best[s] = max(best[s], got.Score)
				}
			}
			for _, d := range []*Sharded{ref, floored, sharded} {
				for i := range d.dets {
					d.Shard(i).SweepStale(at, 1e-9)
				}
			}
			want := fmt.Sprintf("%v", ref.ExportState())
			if got := fmt.Sprintf("%v", floored.ExportState()); got != want {
				t.Fatalf("tick %d: floored state\n%s\nunfloored\n%s", ti, got, want)
			}
			if got := fmt.Sprintf("%v", sharded.ExportState()); got != want {
				t.Fatalf("tick %d: sharded state\n%s\nunfloored\n%s", ti, got, want)
			}
		}
	})
}
