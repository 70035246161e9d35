package pairs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func TestMakeKeyCanonical(t *testing.T) {
	k1 := MakeKey("volcano", "iceland")
	k2 := MakeKey("iceland", "volcano")
	if k1 != k2 {
		t.Errorf("keys differ: %v vs %v", k1, k2)
	}
	if k1.Tag1() != "iceland" || k1.Tag2() != "volcano" {
		t.Errorf("not canonical: %v", k1)
	}
	if k1.String() != "iceland+volcano" {
		t.Errorf("String = %q", k1.String())
	}
}

func TestKeyContainsOther(t *testing.T) {
	k := MakeKey("a", "b")
	if !k.Contains("a") || !k.Contains("b") || k.Contains("c") {
		t.Error("Contains wrong")
	}
	if o, ok := k.Other("a"); !ok || o != "b" {
		t.Errorf("Other(a) = %q,%v", o, ok)
	}
	if o, ok := k.Other("b"); !ok || o != "a" {
		t.Errorf("Other(b) = %q,%v", o, ok)
	}
	if _, ok := k.Other("z"); ok {
		t.Error("Other(z) should not be found")
	}
}

func TestMeasureValues(t *testing.T) {
	// nab=2, na=4, nb=6, n=20
	tests := []struct {
		m    Measure
		want float64
	}{
		{Jaccard, 2.0 / 8.0},
		{Dice, 4.0 / 10.0},
		{Cosine, 2.0 / math.Sqrt(24)},
		{Overlap, 2.0 / 4.0},
		{Confidence, 2.0 / 4.0},
	}
	for _, tc := range tests {
		if got := tc.m.Compute(2, 4, 6, 20); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v.Compute = %v, want %v", tc.m, got, tc.want)
		}
	}
}

func TestNPMI(t *testing.T) {
	// Perfect co-occurrence: a and b always together → NPMI = 1.
	if got := NPMI.Compute(5, 5, 5, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect NPMI = %v, want 1", got)
	}
	// Independence: p(ab) = p(a)p(b) → pmi=0 → NPMI = 0.5.
	if got := NPMI.Compute(1, 10, 10, 100); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("independent NPMI = %v, want 0.5", got)
	}
	if got := NPMI.Compute(0, 10, 10, 100); got != 0 {
		t.Errorf("zero co-occurrence NPMI = %v, want 0", got)
	}
}

func TestMeasureDegenerateInputs(t *testing.T) {
	for _, m := range AllMeasures() {
		if got := m.Compute(0, 0, 0, 0); got != 0 {
			t.Errorf("%v on zeros = %v, want 0", m, got)
		}
		if got := m.Compute(-1, 5, 5, 10); got != 0 {
			t.Errorf("%v on negative nab = %v, want 0", m, got)
		}
		// Inconsistent counts (nab > na) are clamped, not out of range.
		if got := m.Compute(10, 2, 3, 10); got < 0 || got > 1 {
			t.Errorf("%v clamped = %v out of [0,1]", m, got)
		}
	}
}

// Property: every measure stays within [0, 1] and equals 1 (or close) when
// the two tags always co-occur exactly.
func TestMeasureRange(t *testing.T) {
	f := func(nab8, na8, nb8, n8 uint8) bool {
		nab := float64(nab8)
		na := float64(na8) + 1
		nb := float64(nb8) + 1
		n := na + nb + float64(n8)
		for _, m := range AllMeasures() {
			v := m.Compute(nab, na, nb, n)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: all measures are symmetric in (na, nb).
func TestMeasureSymmetry(t *testing.T) {
	f := func(nab8, na8, nb8 uint8) bool {
		nab := float64(nab8 % 50)
		na := float64(na8) + 1
		nb := float64(nb8) + 1
		n := na + nb + 100
		for _, m := range AllMeasures() {
			if math.Abs(m.Compute(nab, na, nb, n)-m.Compute(nab, nb, na, n)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: measures are monotone non-decreasing in nab (more overlap can
// only raise correlation) for fixed na, nb, n.
func TestMeasureMonotoneInOverlap(t *testing.T) {
	f := func(na8, nb8 uint8) bool {
		na := float64(na8%40) + 10
		nb := float64(nb8%40) + 10
		n := 200.0
		for _, m := range AllMeasures() {
			prev := -1.0
			for nab := 0.0; nab <= math.Min(na, nb); nab++ {
				v := m.Compute(nab, na, nb, n)
				if v < prev-1e-12 {
					return false
				}
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParseMeasure(t *testing.T) {
	for _, m := range AllMeasures() {
		got, err := ParseMeasure(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMeasure(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMeasure("bogus"); err == nil {
		t.Error("ParseMeasure(bogus) should fail")
	}
	if Measure(42).String() != "measure(42)" {
		t.Errorf("unknown measure String = %q", Measure(42).String())
	}
}

func TestJSDistance(t *testing.T) {
	p := map[string]float64{"a": 5, "b": 5}
	if d := jsd(p, p); d > 1e-9 {
		t.Errorf("JSD(p,p) = %v, want 0", d)
	}
	q := map[string]float64{"c": 7}
	if d := jsd(p, q); math.Abs(d-1) > 1e-9 {
		t.Errorf("JSD(disjoint) = %v, want 1", d)
	}
	if d := jsd(nil, nil); d != 0 {
		t.Errorf("JSD(nil,nil) = %v, want 0", d)
	}
	if d := jsd(p, nil); d != 1 {
		t.Errorf("JSD(p,nil) = %v, want 1", d)
	}
}

// Property: JS distance is symmetric and in [0,1].
func TestJSDistanceProperties(t *testing.T) {
	f := func(av, bv, cv, dv uint8) bool {
		p := map[string]float64{"a": float64(av), "b": float64(bv)}
		q := map[string]float64{"b": float64(cv), "c": float64(dv)}
		d1, d2 := jsd(p, q), jsd(q, p)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func allSeeds(string) bool { return true }

func TestTrackerObserve(t *testing.T) {
	tr := NewTracker(Config{Buckets: 24, Resolution: time.Hour})
	tr.Observe(t0, []string{"iceland", "volcano", "travel"}, allSeeds)
	tr.Observe(t0.Add(time.Hour), []string{"iceland", "volcano"}, allSeeds)
	if got := tr.Cooccurrence(MakeKey("iceland", "volcano")); got != 2 {
		t.Errorf("cooc(iceland,volcano) = %v, want 2", got)
	}
	if got := tr.Cooccurrence(MakeKey("volcano", "travel")); got != 1 {
		t.Errorf("cooc(volcano,travel) = %v, want 1", got)
	}
	if got := tr.Cooccurrence(MakeKey("x", "y")); got != 0 {
		t.Errorf("cooc(absent) = %v, want 0", got)
	}
	if got := tr.ActivePairs(); got != 3 {
		t.Errorf("ActivePairs = %d, want 3", got)
	}
}

func TestTrackerSeedFiltering(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour})
	isSeed := func(tag string) bool { return tag == "hot" }
	tr.Observe(t0, []string{"hot", "a", "b"}, isSeed)
	// (hot,a) and (hot,b) are candidates; (a,b) is not.
	if got := tr.Cooccurrence(MakeKey("hot", "a")); got != 1 {
		t.Errorf("cooc(hot,a) = %v, want 1", got)
	}
	if got := tr.Cooccurrence(MakeKey("a", "b")); got != 0 {
		t.Errorf("cooc(a,b) = %v, want 0 (no seed in pair)", got)
	}
	if tr.ActivePairs() != 2 {
		t.Errorf("ActivePairs = %d, want 2", tr.ActivePairs())
	}
}

func TestTrackerNilSeedTracksAll(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour})
	tr.Observe(t0, []string{"a", "b", "c"}, nil)
	if tr.ActivePairs() != 3 {
		t.Errorf("ActivePairs = %d, want 3 with nil seed predicate", tr.ActivePairs())
	}
}

func TestTrackerDuplicateAndEmptyTags(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour})
	tr.Observe(t0, []string{"a", "a", "", "b"}, allSeeds)
	if got := tr.Cooccurrence(MakeKey("a", "b")); got != 1 {
		t.Errorf("cooc = %v, want 1 (dedup within doc)", got)
	}
	if got := tr.Cooccurrence(MakeKey("a", "a")); got != 0 {
		t.Errorf("self-pair tracked: %v", got)
	}
	// Single-tag and empty docs are no-ops.
	tr.Observe(t0, []string{"solo"}, allSeeds)
	tr.Observe(t0, nil, allSeeds)
	if tr.ActivePairs() != 1 {
		t.Errorf("ActivePairs = %d, want 1", tr.ActivePairs())
	}
}

func TestTrackerWindowExpiry(t *testing.T) {
	tr := NewTracker(Config{Buckets: 2, Resolution: time.Hour})
	tr.Observe(t0, []string{"a", "b"}, allSeeds)
	tr.Observe(t0.Add(10*time.Hour), []string{"c", "d"}, allSeeds)
	if got := tr.Cooccurrence(MakeKey("a", "b")); got != 0 {
		t.Errorf("expired cooc = %v, want 0", got)
	}
}

func TestTrackerMaxPairsEviction(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour, MaxPairs: 3})
	// Strong pair observed repeatedly.
	for i := 0; i < 5; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), []string{"hot", "topic"}, allSeeds)
	}
	// Weak pairs flood in.
	for i := 0; i < 10; i++ {
		tr.Observe(t0.Add(time.Duration(5+i)*time.Minute),
			[]string{fmt.Sprintf("w%d", i), fmt.Sprintf("v%d", i)}, allSeeds)
	}
	if tr.ActivePairs() > 3 {
		t.Errorf("ActivePairs = %d, want <= 3", tr.ActivePairs())
	}
	if got := tr.Cooccurrence(MakeKey("hot", "topic")); got != 5 {
		t.Errorf("strong pair evicted; cooc = %v, want 5", got)
	}
}

func TestTrackerSeries(t *testing.T) {
	tr := NewTracker(Config{Buckets: 3, Resolution: time.Hour})
	k := MakeKey("a", "b")
	tr.Observe(t0, []string{"a", "b"}, allSeeds)
	tr.Observe(t0.Add(2*time.Hour), []string{"a", "b"}, allSeeds)
	got := tr.Series(k)
	want := []float64{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
	if tr.Series(MakeKey("no", "pair")) != nil {
		t.Error("Series of unknown pair should be nil")
	}
}

func TestTrackerMatchesNaive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(Config{Buckets: 128, Resolution: time.Minute})
		truth := map[Key]int{}
		cur := t0
		for i := 0; i < int(n); i++ {
			cur = cur.Add(time.Duration(rng.Intn(50)) * time.Second)
			var tags []string
			for j := 0; j < 2+rng.Intn(3); j++ {
				tags = append(tags, fmt.Sprintf("t%d", rng.Intn(5)))
			}
			tr.Observe(cur, tags, allSeeds)
			seen := map[string]bool{}
			var uniq []string
			for _, tg := range tags {
				if !seen[tg] {
					seen[tg] = true
					uniq = append(uniq, tg)
				}
			}
			for x := 0; x < len(uniq); x++ {
				for y := x + 1; y < len(uniq); y++ {
					truth[MakeKey(uniq[x], uniq[y])]++
				}
			}
		}
		for k, want := range truth {
			if int(tr.Cooccurrence(k)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(Config{Buckets: 48, Resolution: time.Hour})
	rng := rand.New(rand.NewSource(9))
	docs := make([][]string, 512)
	for i := range docs {
		for j := 0; j < 4; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("tag%d", rng.Intn(500)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Second), docs[i%len(docs)], allSeeds)
	}
}

func BenchmarkMeasureCompute(b *testing.B) {
	for _, m := range AllMeasures() {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Compute(float64(i%50), 100, 80, 1000)
			}
		})
	}
}
