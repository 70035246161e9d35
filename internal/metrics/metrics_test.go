package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

var rel = map[string]bool{"a": true, "c": true}

func TestPrecisionAtK(t *testing.T) {
	ranked := []string{"a", "b", "c", "d"}
	tests := []struct {
		k    int
		want float64
	}{
		{1, 1}, {2, 0.5}, {3, 2.0 / 3}, {4, 0.5}, {10, 0.5}, {0, 0},
	}
	for _, tc := range tests {
		if got := PrecisionAtK(ranked, rel, tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P@%d = %v, want %v", tc.k, got, tc.want)
		}
	}
	if got := PrecisionAtK(nil, rel, 5); got != 0 {
		t.Errorf("P@k empty list = %v", got)
	}
}

func TestDetectionLatencies(t *testing.T) {
	starts := map[string]time.Time{
		"evt1": t0,
		"evt2": t0.Add(time.Hour),
		"evt3": t0.Add(2 * time.Hour),
	}
	dets := []Detection{
		{ID: "evt1", At: t0.Add(30 * time.Minute)},
		{ID: "evt1", At: t0.Add(10 * time.Minute)}, // earlier duplicate wins
		{ID: "evt2", At: t0.Add(30 * time.Minute)}, // before start → zero delay
	}
	ls := DetectionLatencies(starts, dets)
	if len(ls) != 3 {
		t.Fatalf("latencies = %+v", ls)
	}
	if ls[0].ID != "evt1" || !ls[0].Detected || ls[0].Delay != 10*time.Minute {
		t.Errorf("evt1 = %+v", ls[0])
	}
	if !ls[1].Detected || ls[1].Delay != 0 {
		t.Errorf("evt2 = %+v", ls[1])
	}
	if ls[2].Detected {
		t.Errorf("evt3 = %+v, want undetected", ls[2])
	}
}

func TestSummarize(t *testing.T) {
	ls := []Latency{
		{ID: "a", Detected: true, Delay: 2 * time.Hour},
		{ID: "b", Detected: true, Delay: 4 * time.Hour},
		{ID: "c", Detected: false},
	}
	s := Summarize(ls)
	if s.Events != 3 || s.Detected != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if s.MeanDelay != 3*time.Hour || s.MaxDelay != 4*time.Hour {
		t.Errorf("delays = mean %v max %v", s.MeanDelay, s.MaxDelay)
	}
}

// Property: precision is always within [0,1].
func TestMetricBounds(t *testing.T) {
	f := func(ids []string, relIdx []uint8) bool {
		relevant := map[string]bool{}
		for _, i := range relIdx {
			if len(ids) > 0 {
				relevant[ids[int(i)%len(ids)]] = true
			}
		}
		for k := 0; k <= len(ids)+2; k++ {
			if p := PrecisionAtK(ids, relevant, k); p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
