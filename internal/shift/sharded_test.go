package shift

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
)

// A sharded detector fed per-shard must produce exactly the scores a single
// global detector produces, tick for tick — including the round-one warm-up
// and the "implicit zero history" rule for pairs appearing on later rounds.
// owner returns the shard detector that evaluates pair k.
func owner(s *Sharded, k pairs.Key) *Detector { return s.Shard(k.Shard(len(s.dets))) }

func TestShardedMatchesSingleDetector(t *testing.T) {
	cfg := Config{
		Predictor:       predict.KindMovingAverage,
		PredictorConfig: predict.Config{Window: 3},
		HalfLife:        12 * time.Hour,
		MinCooccurrence: 2,
	}
	const shards = 4
	base := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))

	keys := make([]pairs.Key, 40)
	for i := range keys {
		keys[i] = pairs.MakeKey(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%7))
	}

	single := NewDetector(cfg)
	sharded := NewSharded(shards, cfg)

	for tick := 0; tick < 30; tick++ {
		at := base.Add(time.Duration(tick) * time.Hour)
		// A sliding subset of pairs is "tracked" each tick; later ticks
		// introduce pairs the detector has never seen.
		lo, hi := tick%10, 10+tick
		if hi > len(keys) {
			hi = len(keys)
		}
		active := keys[lo:hi]
		if len(active) > 0 {
			sharded.BeginTick(at)
		}
		for _, k := range active {
			corr := rng.Float64()
			nab := float64(rng.Intn(6))
			want := single.Evaluate(at, k, nab, corr*10, corr*12, 100)
			got := owner(sharded, k).Evaluate(at, k, nab, corr*10, corr*12, 100)
			if got != want {
				t.Fatalf("tick %d pair %v: sharded %+v != single %+v", tick, k, got, want)
			}
		}
		keep := make(map[pairs.Key]bool, len(active))
		for _, k := range active {
			keep[k] = true
		}
		single.Sweep(at, keep, 1e-9)
		for i := 0; i < shards; i++ {
			sharded.Shard(i).Sweep(at, keep, 1e-9)
		}
		if got, want := sharded.ActiveStates(), single.ActiveStates(); got != want {
			t.Fatalf("tick %d: ActiveStates = %d, want %d", tick, got, want)
		}
	}
}

// BeginTick must make a shard whose first pair arrives on a later round
// agree with the global round count: the pair is scored against an implicit
// zero history rather than getting a silent warm-up.
func TestShardedBeginTickSyncsRounds(t *testing.T) {
	cfg := Config{MinCooccurrence: 1}
	sharded := NewSharded(2, cfg)
	base := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

	k := pairs.MakeKey("x", "y")
	other := 1 - k.Shard(2) // the shard that will sit idle on round one

	// Round one: only k's shard evaluates anything.
	sharded.BeginTick(base)
	r1 := owner(sharded, k).Evaluate(base, k, 3, 5, 5, 10)
	if !r1.Warmup {
		t.Fatalf("round-one evaluation not warm-up: %+v", r1)
	}

	// Round two: a pair owned by the previously idle shard appears. With
	// synced rounds it must be scored (predicted = 0), not warmed up.
	k2 := pairs.MakeKey("p", "q")
	if k2.Shard(2) != other {
		// Find a key landing on the idle shard.
		for i := 0; ; i++ {
			k2 = pairs.MakeKey(fmt.Sprintf("p%d", i), "q")
			if k2.Shard(2) == other {
				break
			}
		}
	}
	at := base.Add(time.Hour)
	sharded.BeginTick(at)
	r2 := owner(sharded, k2).Evaluate(at, k2, 3, 5, 5, 10)
	if r2.Warmup {
		t.Fatalf("late-shard first evaluation warmed up despite BeginTick: %+v", r2)
	}
	if r2.Predicted != 0 {
		t.Errorf("late first evaluation predicted %v, want implicit 0", r2.Predicted)
	}
}
