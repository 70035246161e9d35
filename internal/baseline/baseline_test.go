package baseline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"enblogue/internal/pairs"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func newDet() *BurstDetector {
	return NewBurstDetector(Config{
		Buckets:    4,
		Resolution: time.Hour,
		Alpha:      0.5,
		Threshold:  3,
		MinCount:   5,
	})
}

func TestDefaults(t *testing.T) {
	d := NewBurstDetector(Config{})
	cfg := d.cfg
	if cfg.Threshold != 3 || cfg.MinCount != 5 || cfg.Alpha != 0.25 ||
		cfg.GroupJaccard != 0.2 || cfg.Buckets != 48 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// feedSteady observes rate docs per hour of the tag for hours ticks,
// calling Tick after each hour, and returns the last tick's bursts.
func feedSteady(d *BurstDetector, tag string, rate, hours int, start time.Time) ([]Burst, time.Time) {
	var bursts []Burst
	ts := start
	for h := 0; h < hours; h++ {
		for i := 0; i < rate; i++ {
			d.Observe(ts.Add(time.Duration(i)*time.Second), []string{tag})
		}
		ts = ts.Add(time.Hour)
		bursts = d.Tick(ts)
	}
	return bursts, ts
}

func TestSteadyTagDoesNotBurst(t *testing.T) {
	d := newDet()
	bursts, _ := feedSteady(d, "steady", 10, 12, t0)
	if len(bursts) != 0 {
		t.Errorf("steady tag burst: %+v", bursts)
	}
}

func TestSuddenSpikeBursts(t *testing.T) {
	d := newDet()
	_, ts := feedSteady(d, "tag", 2, 8, t0)
	// Spike: 50 docs in the next hour.
	for i := 0; i < 50; i++ {
		d.Observe(ts.Add(time.Duration(i)*time.Second), []string{"tag"})
	}
	bursts := d.Tick(ts.Add(time.Hour))
	if len(bursts) != 1 || bursts[0].Tag != "tag" {
		t.Fatalf("bursts = %+v, want one for tag", bursts)
	}
	if bursts[0].Score < 3 {
		t.Errorf("burst score = %v, want >= threshold", bursts[0].Score)
	}
	if bursts[0].Current < 50 {
		t.Errorf("burst current = %v, want >= 50", bursts[0].Current)
	}
}

func TestFirstSystemTickNeverBursts(t *testing.T) {
	d := newDet()
	for i := 0; i < 100; i++ {
		d.Observe(t0.Add(time.Duration(i)*time.Second), []string{"brandnew"})
	}
	if bursts := d.Tick(t0.Add(time.Hour)); len(bursts) != 0 {
		t.Errorf("first tick produced bursts: %+v", bursts)
	}
	// Second tick with renewed activity: expected is EWMA seeded at ~100;
	// 200-in-window vs 100 = ratio 2 < 3 → no burst; established heavy
	// tags need a real jump.
	for i := 0; i < 100; i++ {
		d.Observe(t0.Add(time.Hour+time.Duration(i)*time.Second), []string{"brandnew"})
	}
	bursts := d.Tick(t0.Add(2 * time.Hour))
	for _, b := range bursts {
		if b.Tag == "brandnew" && b.Score >= 3 {
			t.Errorf("unexpected burst: %+v", b)
		}
	}
}

func TestNewKeywordMidStreamBursts(t *testing.T) {
	d := newDet()
	// Warm the detector with background traffic.
	ts := t0
	for h := 0; h < 4; h++ {
		for i := 0; i < 10; i++ {
			d.Observe(ts.Add(time.Duration(i)*time.Minute), []string{"background"})
		}
		ts = ts.Add(time.Hour)
		d.Tick(ts)
	}
	// A keyword never seen before arrives at volume: TwitterMonitor-style
	// new-topic detection must flag it on its first evaluation.
	for i := 0; i < 20; i++ {
		d.Observe(ts.Add(time.Duration(i)*time.Minute), []string{"breaking"})
	}
	bursts := d.Tick(ts.Add(time.Hour))
	found := false
	for _, b := range bursts {
		if b.Tag == "breaking" {
			found = true
		}
	}
	if !found {
		t.Errorf("new keyword did not burst: %+v", bursts)
	}
}

func TestMinCountSuppressesTinyBursts(t *testing.T) {
	d := newDet() // MinCount 5
	d.Observe(t0, []string{"tiny"})
	d.Tick(t0.Add(time.Hour))
	// 3 docs is a 3x ratio but under MinCount.
	for i := 0; i < 3; i++ {
		d.Observe(t0.Add(time.Hour+time.Duration(i)*time.Second), []string{"tiny"})
	}
	if bursts := d.Tick(t0.Add(2 * time.Hour)); len(bursts) != 0 {
		t.Errorf("tiny burst not suppressed: %+v", bursts)
	}
}

func TestBurstsSortedByScore(t *testing.T) {
	d := NewBurstDetector(Config{
		Buckets: 4, Resolution: time.Hour, Alpha: 0.5, Threshold: 2, MinCount: 2,
	})
	// Two tags with different spike magnitudes.
	feedSteady(d, "small", 2, 6, t0)
	ts := t0.Add(6 * time.Hour)
	feedSteady(d, "big", 2, 6, t0)
	for i := 0; i < 10; i++ {
		d.Observe(ts.Add(time.Duration(i)*time.Second), []string{"small"})
	}
	for i := 0; i < 40; i++ {
		d.Observe(ts.Add(time.Duration(i)*time.Second), []string{"big"})
	}
	bursts := d.Tick(ts.Add(time.Hour))
	if len(bursts) < 2 {
		t.Fatalf("bursts = %+v, want 2", bursts)
	}
	if bursts[0].Tag != "big" || bursts[1].Tag != "small" {
		t.Errorf("burst order = %v,%v want big,small", bursts[0].Tag, bursts[1].Tag)
	}
}

func TestGroupsClusterCooccurringBursts(t *testing.T) {
	d := NewBurstDetector(Config{
		Buckets: 4, Resolution: time.Hour, Alpha: 0.5,
		Threshold: 2, MinCount: 3, GroupJaccard: 0.3,
	})
	// Warm up three tags at low rate.
	ts := t0
	for h := 0; h < 6; h++ {
		d.Observe(ts, []string{"iceland"})
		d.Observe(ts.Add(time.Minute), []string{"volcano"})
		d.Observe(ts.Add(2*time.Minute), []string{"tennis"})
		ts = ts.Add(time.Hour)
		d.Tick(ts)
	}
	// Burst: iceland+volcano co-occur in the same documents; tennis bursts
	// independently.
	for i := 0; i < 20; i++ {
		d.Observe(ts.Add(time.Duration(i)*time.Second), []string{"iceland", "volcano"})
		d.Observe(ts.Add(time.Duration(i)*time.Second), []string{"tennis"})
	}
	bursts := d.Tick(ts.Add(time.Hour))
	if len(bursts) != 3 {
		t.Fatalf("bursts = %+v, want 3", bursts)
	}
	groups := d.Groups(bursts)
	if len(groups) != 2 {
		t.Fatalf("groups = %+v, want 2", groups)
	}
	var joint *Group
	for i := range groups {
		if len(groups[i].Tags) == 2 {
			joint = &groups[i]
		}
	}
	if joint == nil || !reflect.DeepEqual(joint.Tags, []string{"iceland", "volcano"}) {
		t.Errorf("joint group = %+v", groups)
	}
}

func TestGroupsEmpty(t *testing.T) {
	d := newDet()
	if g := d.Groups(nil); g != nil {
		t.Errorf("Groups(nil) = %v", g)
	}
}

func TestTopicPairs(t *testing.T) {
	groups := []Group{
		{Tags: []string{"a", "b", "c"}, Score: 5},
		{Tags: []string{"solo"}, Score: 9},
		{Tags: []string{"a", "b"}, Score: 2}, // duplicate pair a+b
	}
	got := TopicPairs(groups)
	want := []pairs.Key{
		pairs.MakeKey("a", "b"),
		pairs.MakeKey("a", "c"),
		pairs.MakeKey("b", "c"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopicPairs = %v, want %v", got, want)
	}
}

// The key negative result that motivates enBlogue (Figure 1): a correlation
// shift WITHOUT a rate change is invisible to the burst baseline.
func TestCorrelationShiftWithoutBurstIsMissed(t *testing.T) {
	d := NewBurstDetector(Config{
		Buckets: 4, Resolution: time.Hour, Alpha: 0.5, Threshold: 3, MinCount: 5,
	})
	rng := rand.New(rand.NewSource(2))
	ts := t0
	// Phase 1: t1 and t2 appear at constant rates in disjoint documents.
	for h := 0; h < 8; h++ {
		for i := 0; i < 20; i++ {
			d.Observe(ts.Add(time.Duration(i*60+rng.Intn(50))*time.Second), []string{"t1"})
		}
		for i := 0; i < 6; i++ {
			d.Observe(ts.Add(time.Duration(i*300+rng.Intn(200))*time.Second), []string{"t2"})
		}
		ts = ts.Add(time.Hour)
		d.Tick(ts)
	}
	// Phase 2: same total rates, but now t2's documents all carry t1 too —
	// a pure correlation shift.
	var bursts []Burst
	for h := 0; h < 3; h++ {
		for i := 0; i < 14; i++ {
			d.Observe(ts.Add(time.Duration(i*60)*time.Second), []string{"t1"})
		}
		for i := 0; i < 6; i++ {
			d.Observe(ts.Add(time.Duration(i*300)*time.Second), []string{"t1", "t2"})
		}
		ts = ts.Add(time.Hour)
		bursts = append(bursts, d.Tick(ts)...)
	}
	if len(bursts) != 0 {
		t.Errorf("burst baseline flagged a pure correlation shift: %+v", bursts)
	}
}

func TestSweepBoundsMemory(t *testing.T) {
	d := NewBurstDetector(Config{Buckets: 2, Resolution: time.Minute})
	ts := t0
	for i := 0; i < 10000; i++ {
		d.Observe(ts, []string{fmt.Sprintf("ephemeral%d", i)})
		ts = ts.Add(time.Second)
	}
	if len(d.tags) >= 10000 {
		t.Errorf("%d tags tracked, sweep never ran", len(d.tags))
	}
}

func BenchmarkObserveTick(b *testing.B) {
	d := NewBurstDetector(Config{Buckets: 48, Resolution: time.Hour})
	rng := rand.New(rand.NewSource(4))
	docs := make([][]string, 256)
	for i := range docs {
		for j := 0; j < 3; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("tag%d", rng.Intn(300)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := t0.Add(time.Duration(i) * time.Second)
		d.Observe(ts, docs[i%len(docs)])
		if i%1000 == 999 {
			d.Tick(ts)
		}
	}
}
