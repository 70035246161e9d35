package tier

import (
	"math/rand"
	"sort"
	"testing"
)

const span = int64(1_000_000) // small generation span for direct control

// estimate reads key's windowed Count-Min estimate at event time nowNano —
// the upper bound AppendCandidates attaches and the exact tier seeds from.
func estimate(tl *Tail, nowNano int64, key uint64) uint64 {
	tl.advance(nowNano)
	return tl.cm.EstimateU64(key)
}

func newTail(t testing.TB, topK int) *Tail {
	t.Helper()
	return New(Config{Epsilon: 0.01, Delta: 0.01, TopK: topK, Span: span})
}

func TestTailDemoteThenEstimateIsUpperBound(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(10, 42, 7)
	tl.Demote(20, 42, 3)
	if est := estimate(tl, 30, 42); est < 10 {
		t.Fatalf("estimate %d underestimates true demoted mass 10", est)
	}
	if est := estimate(tl, 30, 99); est != 0 {
		t.Fatalf("never-demoted key estimates %d, want 0", est)
	}
}

func TestTailZeroCountDemotionIgnored(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(10, 42, 0)
	if s := tl.Stats(); s.Pairs != 0 || s.Mass != 0 || s.Demoted != 0 {
		t.Fatalf("zero-count demotion left state: %+v", s)
	}
}

func TestTailCandidatesRespectFloor(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(10, 1, 5)
	tl.Demote(10, 2, 20)
	tl.Demote(10, 3, 50)

	got := tl.AppendCandidates(10, 20, nil)
	keys := map[uint64]uint64{}
	for _, c := range got {
		keys[c.Key] = c.Est
	}
	// Strict floor: key 3 must qualify, key 1 must not. Key 2's estimate may
	// exceed 20 only through sketch collision slack, so assert just the
	// certain cases.
	if _, ok := keys[3]; !ok {
		t.Fatalf("key 3 (est >= 50) missing above floor 20: %v", got)
	}
	if _, ok := keys[1]; ok && keys[1] <= 20 {
		t.Fatalf("key 1 with est %d <= floor 20 offered as candidate", keys[1])
	}
	for _, c := range got {
		if c.Est <= 20 {
			t.Fatalf("candidate %d carries est %d <= floor", c.Key, c.Est)
		}
	}
}

func TestTailRemoveDropsCandidate(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(10, 7, 100)
	if got := tl.AppendCandidates(10, 0, nil); len(got) != 1 || got[0].Key != 7 {
		t.Fatalf("candidates before removal: %v", got)
	}
	tl.Remove(7)
	if got := tl.AppendCandidates(10, 0, nil); len(got) != 0 {
		t.Fatalf("removed key still a candidate: %v", got)
	}
	// The Count-Min mass survives removal: estimates stay upper bounds.
	if est := estimate(tl, 10, 7); est < 100 {
		t.Fatalf("estimate %d dropped below demoted mass after removal", est)
	}
}

func TestTailSurvivesOneGenerationThenDecays(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(0, 7, 100) // generation 0

	// One span later the pair is in prev: still estimable, still a candidate.
	if est := estimate(tl, span, 7); est < 100 {
		t.Fatalf("estimate %d lost mass after one rotation", est)
	}
	if got := tl.AppendCandidates(span, 0, nil); len(got) != 1 || got[0].Key != 7 {
		t.Fatalf("pair not promotable one span after demotion: %v", got)
	}

	// Two spans later everything has decayed.
	if est := estimate(tl, 2*span, 7); est != 0 {
		t.Fatalf("estimate %d survived two rotations, want 0", est)
	}
	if s := tl.Stats(); s.Pairs != 0 || s.Mass != 0 {
		t.Fatalf("stats not empty after decay: %+v", s)
	}
}

func TestTailBackwardsTimeIgnored(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(2*span, 7, 100) // generation 2
	// A stale reader at generation 0 must not clear newer mass.
	if est := estimate(tl, 0, 7); est < 100 {
		t.Fatalf("stale read cleared mass: estimate %d", est)
	}
	if est := estimate(tl, 2*span, 7); est < 100 {
		t.Fatalf("mass gone after stale read: estimate %d", est)
	}
}

func TestTailStats(t *testing.T) {
	tl := newTail(t, 8)
	tl.Demote(0, 1, 10)
	tl.Demote(0, 2, 20)
	s := tl.Stats()
	if s.Pairs != 2 || s.Mass != 30 || s.Demoted != 2 {
		t.Fatalf("stats = %+v, want 2 pairs, mass 30, 2 demotions", s)
	}
	if s.Epsilon <= 0 || s.Epsilon > 0.01 {
		t.Fatalf("epsilon %v outside (0, 0.01]", s.Epsilon)
	}
}

func TestNewPanicsWithoutSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a zero span")
		}
	}()
	New(Config{})
}

// The tier extends the sketch cross-validation to packed-key demotion: on a
// Zipf-skewed eviction stream confined to one generation, every estimate
// must bracket the true demoted mass within the εN design bound, and the
// heavy-hitter summary must surface the true head as candidates.
func TestTailEstimatesWithinEpsilonOfTruth(t *testing.T) {
	tl := New(Config{Epsilon: 0.005, Delta: 0.01, TopK: 64, Span: 1 << 40})
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.6, 1, 4999)

	truth := map[uint64]uint64{}
	var mass uint64
	const n = 30000
	for i := 0; i < n; i++ {
		// Packed keys as the tracker produces them: two interned IDs.
		key := zipf.Uint64()<<32 | zipf.Uint64()
		w := uint64(rng.Intn(3) + 1)
		tl.Demote(int64(i), key, w)
		truth[key] += w
		mass += w
	}

	if s := tl.Stats(); s.Mass != mass {
		t.Fatalf("sketch mass %d, want %d", s.Mass, mass)
	}
	slack := uint64(0.005*float64(mass)) + 1
	bad := 0
	for key, want := range truth {
		got := estimate(tl, int64(n), key)
		if got < want {
			t.Fatalf("tail underestimated %#x: %d < %d", key, got, want)
		}
		if got > want+slack {
			bad++
		}
	}
	// delta = 0.01 per key: a few misses over thousands of keys are in
	// contract, a systematic excess is not.
	if limit := len(truth) / 20; bad > limit {
		t.Errorf("%d/%d keys exceed the epsilon bound (limit %d)", bad, len(truth), limit)
	}

	// The true top candidates must all surface above a floor below the head.
	type kv struct {
		k, v uint64
	}
	var byCount []kv
	for k, v := range truth {
		byCount = append(byCount, kv{k, v})
	}
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].v != byCount[j].v {
			return byCount[i].v > byCount[j].v
		}
		return byCount[i].k < byCount[j].k
	})
	floor := byCount[9].v // admit everything at least as heavy as true #10
	cands := map[uint64]bool{}
	for _, c := range tl.AppendCandidates(int64(n), floor, nil) {
		cands[c.Key] = true
	}
	for _, e := range byCount[:9] {
		if !cands[e.k] {
			t.Errorf("true heavy hitter %#x (count %d) not offered above floor %d", e.k, e.v, floor)
		}
	}
}

// Candidate order must be deterministic for identical demotion histories —
// the promotion path feeds ranking-visible state from it.
func TestTailCandidatesDeterministic(t *testing.T) {
	build := func() []Candidate {
		tl := newTail(t, 16)
		for i := 0; i < 200; i++ {
			tl.Demote(int64(i), uint64(i%23)+1, uint64(i%7)+1)
		}
		return tl.AppendCandidates(200, 2, nil)
	}
	want := build()
	for run := 0; run < 10; run++ {
		got := build()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d candidates, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: candidate %d = %+v, want %+v", run, i, got[i], want[i])
			}
		}
	}
}
