package tagstats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"enblogue/internal/intern"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// stat returns tag's windowed statistics as Top computes them, or a zero
// TagStat for a tag with no windowed documents.
func stat(tr *Tracker, tag string) TagStat {
	for _, s := range tr.Top(tr.ActiveTags(), ByHybrid, 0) {
		if s.Tag == tag {
			return s
		}
	}
	return TagStat{Tag: tag}
}

func newTestTracker() *Tracker {
	return NewTracker(Config{Buckets: 24, Resolution: time.Hour})
}

func TestObserveAndCount(t *testing.T) {
	tr := newTestTracker()
	tr.Observe(t0, []string{"iceland", "volcano"})
	tr.Observe(t0.Add(time.Hour), []string{"iceland"})
	if got := stat(tr, "iceland").Count; got != 2 {
		t.Errorf("Count(iceland) = %v, want 2", got)
	}
	if got := stat(tr, "volcano").Count; got != 1 {
		t.Errorf("Count(volcano) = %v, want 1", got)
	}
	if got := stat(tr, "absent").Count; got != 0 {
		t.Errorf("Count(absent) = %v, want 0", got)
	}
	if got := tr.DocCount(); got != 2 {
		t.Errorf("DocCount = %v, want 2", got)
	}
}

func TestDuplicateTagsCountedOnce(t *testing.T) {
	tr := newTestTracker()
	tr.Observe(t0, []string{"a", "a", "", "a"})
	if got := stat(tr, "a").Count; got != 1 {
		t.Errorf("Count(a) = %v, want 1 (dup tags in one doc)", got)
	}
	if got := stat(tr, "").Count; got != 0 {
		t.Errorf("empty tag counted: %v", got)
	}
}

func TestPopularity(t *testing.T) {
	tr := newTestTracker()
	for i := 0; i < 10; i++ {
		tags := []string{"common"}
		if i < 3 {
			tags = append(tags, "rare")
		}
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), tags)
	}
	if got := stat(tr, "common").Popularity; got != 1.0 {
		t.Errorf("Popularity(common) = %v, want 1", got)
	}
	if got := stat(tr, "rare").Popularity; got != 0.3 {
		t.Errorf("Popularity(rare) = %v, want 0.3", got)
	}
}

func TestWindowExpiry(t *testing.T) {
	tr := newTestTracker() // 24h window
	tr.Observe(t0, []string{"old"})
	tr.Observe(t0.Add(48*time.Hour), []string{"new"})
	if got := stat(tr, "old").Count; got != 0 {
		t.Errorf("Count(old) = %v, want 0 after window slide", got)
	}
	if got := stat(tr, "new").Count; got != 1 {
		t.Errorf("Count(new) = %v, want 1", got)
	}
}

func TestSweepEvictsIdleTags(t *testing.T) {
	tr := NewTracker(Config{Buckets: 2, Resolution: time.Minute, SweepEvery: 10})
	tr.Observe(t0, []string{"gone"})
	// Push time far past the window and trigger the sweep threshold.
	for i := 0; i < 12; i++ {
		tr.Observe(t0.Add(time.Hour+time.Duration(i)*time.Minute), []string{"live"})
	}
	if tr.ActiveTags() != 1 {
		t.Errorf("ActiveTags = %d, want 1 (idle tag evicted)", tr.ActiveTags())
	}
	if stat(tr, "live").Count == 0 {
		t.Error("live tag lost by sweep")
	}
}

func TestVolatility(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour})
	// "steady" appears once per bucket; "bursty" all in one bucket.
	for i := 0; i < 4; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Hour), []string{"steady"})
	}
	for i := 0; i < 4; i++ {
		tr.Observe(t0.Add(3*time.Hour), []string{"bursty"})
	}
	vs, vb := stat(tr, "steady").Volatility, stat(tr, "bursty").Volatility
	if vs != 0 {
		t.Errorf("Volatility(steady) = %v, want 0", vs)
	}
	if vb <= vs {
		t.Errorf("Volatility(bursty)=%v not greater than steady=%v", vb, vs)
	}
	if got := stat(tr, "absent").Volatility; got != 0 {
		t.Errorf("Volatility(absent) = %v, want 0", got)
	}
}

func TestTopByPopularity(t *testing.T) {
	tr := newTestTracker()
	for i := 0; i < 30; i++ {
		tags := []string{"t1"}
		if i%2 == 0 {
			tags = append(tags, "t2")
		}
		if i%3 == 0 {
			tags = append(tags, "t3")
		}
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), tags)
	}
	top := tr.Top(2, ByPopularity, 0)
	if len(top) != 2 || top[0].Tag != "t1" || top[1].Tag != "t2" {
		t.Errorf("Top = %+v, want [t1 t2]", top)
	}
	if top[0].Popularity != 1 {
		t.Errorf("t1 popularity = %v, want 1", top[0].Popularity)
	}
	// minCount filter removes t3 (10 docs) and t2 (15 docs).
	top = tr.Top(5, ByPopularity, 16)
	if len(top) != 1 || top[0].Tag != "t1" {
		t.Errorf("Top with minCount = %+v, want only t1", top)
	}
	if got := tr.Top(0, ByPopularity, 0); got != nil {
		t.Errorf("Top(0) = %v, want nil", got)
	}
}

func TestTopDeterministicTieBreak(t *testing.T) {
	tr := newTestTracker()
	tr.Observe(t0, []string{"b", "a", "c"})
	top := tr.Top(3, ByPopularity, 0)
	got := []string{top[0].Tag, top[1].Tag, top[2].Tag}
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie-broken Top = %v, want %v", got, want)
	}
}

func TestTopByVolatilityAndHybrid(t *testing.T) {
	tr := NewTracker(Config{Buckets: 4, Resolution: time.Hour})
	for i := 0; i < 4; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Hour), []string{"steady"})
	}
	for i := 0; i < 3; i++ {
		tr.Observe(t0.Add(3*time.Hour), []string{"bursty"})
	}
	top := tr.Top(1, ByVolatility, 0)
	if len(top) != 1 || top[0].Tag != "bursty" {
		t.Errorf("Top by volatility = %+v, want bursty", top)
	}
	// Hybrid should still rank steady (higher popularity 4/7) vs bursty
	// (3/7 but volatile); just check it runs and returns both.
	top = tr.Top(2, ByHybrid, 0)
	if len(top) != 2 {
		t.Errorf("Top hybrid returned %d entries, want 2", len(top))
	}
}

func TestCriterionString(t *testing.T) {
	if ByPopularity.String() != "popularity" ||
		ByVolatility.String() != "volatility" ||
		ByHybrid.String() != "hybrid" {
		t.Error("Criterion.String mismatch")
	}
	if Criterion(99).String() != "criterion(99)" {
		t.Errorf("unknown criterion string = %q", Criterion(99).String())
	}
}

func TestStatsSnapshot(t *testing.T) {
	tr := newTestTracker()
	tr.Observe(t0, []string{"x"})
	tr.Observe(t0, []string{"y"})
	s := stat(tr, "x")
	if s.Tag != "x" || s.Count != 1 || s.Popularity != 0.5 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestSeedSelector(t *testing.T) {
	tr := newTestTracker()
	for i := 0; i < 20; i++ {
		tags := []string{"hot"}
		if i%4 == 0 {
			tags = append(tags, "warm")
		}
		if i == 0 {
			tags = append(tags, "cold")
		}
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), tags)
	}
	sel := NewSeedSelector(2, ByPopularity, 2)
	seeds := sel.Reselect(tr)
	if !reflect.DeepEqual(seeds, []string{"hot", "warm"}) {
		t.Errorf("seeds = %v, want [hot warm]", seeds)
	}
	if isSeed := sel.Func(); !isSeed("hot") || isSeed("cold") {
		t.Error("seed membership wrong")
	}
	if !reflect.DeepEqual(sel.Seeds(), seeds) {
		t.Error("Seeds() disagrees with Reselect result")
	}
	// Reselection replaces the set.
	for i := 0; i < 50; i++ {
		tr.Observe(t0.Add(time.Duration(20+i)*time.Minute), []string{"surge"})
	}
	seeds = sel.Reselect(tr)
	if seeds[0] != "surge" {
		t.Errorf("after surge, seeds = %v", seeds)
	}
}

func TestSpanAndDefaults(t *testing.T) {
	tr := NewTracker(Config{})
	span := func(tr *Tracker) time.Duration { return time.Duration(tr.cfg.Buckets) * tr.cfg.Resolution }
	if got := span(tr); got != 48*time.Hour {
		t.Errorf("default span = %v, want 48h", got)
	}
	tr2 := NewTracker(Config{Buckets: 10, Resolution: time.Minute})
	if got := span(tr2); got != 10*time.Minute {
		t.Errorf("span = %v, want 10m", got)
	}
}

// Property: tag counts never exceed the document count, and popularity stays
// in [0, 1], for arbitrary monotone observation sequences.
func TestInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(Config{Buckets: 8, Resolution: time.Minute, SweepEvery: 16})
		cur := t0
		for i := 0; i < int(n); i++ {
			cur = cur.Add(time.Duration(rng.Intn(90)) * time.Second)
			var tags []string
			for j := 0; j < rng.Intn(4); j++ {
				tags = append(tags, fmt.Sprintf("t%d", rng.Intn(6)))
			}
			tr.Observe(cur, tags)
		}
		total := tr.DocCount()
		for j := 0; j < 6; j++ {
			tag := fmt.Sprintf("t%d", j)
			c := stat(tr, tag).Count
			if c > total {
				return false
			}
			p := stat(tr, tag).Popularity
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := NewTracker(Config{Buckets: 48, Resolution: time.Hour})
	tags := make([][]string, 256)
	rng := rand.New(rand.NewSource(3))
	for i := range tags {
		for j := 0; j < 3; j++ {
			tags[i] = append(tags[i], fmt.Sprintf("tag%d", rng.Intn(1000)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Second), tags[i%len(tags)])
	}
}

func BenchmarkTop(b *testing.B) {
	tr := NewTracker(Config{Buckets: 48, Resolution: time.Hour})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Second),
			[]string{fmt.Sprintf("tag%d", rng.Intn(2000))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Top(50, ByPopularity, 2)
	}
}

// BenchmarkObserveIDsHit times ObserveIDs on documents whose tags are all
// tracked already — the ingest hit path — over a 1000-tag vocabulary, with
// the idle-tag sweep kept out of the measurement.
func BenchmarkObserveIDsHit(b *testing.B) {
	tr := NewTracker(Config{Buckets: 48, Resolution: time.Hour, SweepEvery: 1 << 30})
	rng := rand.New(rand.NewSource(3))
	var d intern.Dedup
	docs := make([][]uint32, 256)
	for i := range docs {
		var tags []string
		for j := 0; j < 8; j++ {
			tags = append(tags, fmt.Sprintf("tag%d", rng.Intn(1000)))
		}
		docs[i] = d.Append(nil, tags)
		tr.ObserveIDs(t0, docs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveIDs(t0.Add(time.Duration(i%3600)*time.Second), docs[i%len(docs)])
	}
}

// TopAppend streams each tracked tag with its interned ID, and the
// selected stats carry the same IDs.
func TestTopAppendStreamsInternedIDs(t *testing.T) {
	tr := newTestTracker()
	tr.Observe(t0, []string{"ids-a", "ids-b", "ids-a", ""})
	tr.Observe(t0, []string{"ids-b"})
	seen := map[string]uint32{}
	top := tr.TopAppend(1, ByPopularity, 0, nil, func(tag string, id uint32, n float64) {
		seen[tag] = id
	})
	for _, tag := range []string{"ids-a", "ids-b"} {
		want, _ := intern.Find(tag)
		if id, ok := seen[tag]; !ok || id != want {
			t.Errorf("%s streamed with ID %d (seen %v), want %d", tag, id, ok, want)
		}
	}
	if want, _ := intern.Find("ids-b"); len(top) != 1 || top[0].Tag != "ids-b" || top[0].ID != want {
		t.Errorf("top = %+v, want ids-b with ID %d", top, want)
	}
}
