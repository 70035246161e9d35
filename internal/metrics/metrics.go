// Package metrics provides the evaluation measures the experiments report:
// precision at k against injected ground truth, and detection latency. The real datasets of the paper have no
// ground truth; the synthetic generators do, which is what makes these
// numbers computable at all.
package metrics

import (
	"sort"
	"time"
)

// PrecisionAtK returns the fraction of the first k ranked IDs that are
// relevant. Shorter lists are evaluated at their own length; an empty list
// scores 0.
func PrecisionAtK(ranked []string, relevant map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(ranked) < k {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, id := range ranked[:k] {
		if relevant[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// Detection records when a given topic ID first reached the top-k ranking.
type Detection struct {
	ID string
	At time.Time
}

// Latency is one ground-truth event's detection outcome.
type Latency struct {
	ID       string
	Detected bool
	// Delay is first-detection time minus event start; meaningless when
	// Detected is false.
	Delay time.Duration
}

// DetectionLatencies matches ground-truth events (ID → start time) against
// first-detection times and returns per-event outcomes sorted by ID.
// Detections before the event start count as zero delay (the detector
// cannot be penalised for the generator's first in-window documents).
func DetectionLatencies(eventStarts map[string]time.Time, detections []Detection) []Latency {
	first := make(map[string]time.Time, len(detections))
	for _, d := range detections {
		if t, ok := first[d.ID]; !ok || d.At.Before(t) {
			first[d.ID] = d.At
		}
	}
	out := make([]Latency, 0, len(eventStarts))
	for id, start := range eventStarts {
		l := Latency{ID: id}
		if at, ok := first[id]; ok {
			l.Detected = true
			if at.After(start) {
				l.Delay = at.Sub(start)
			}
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Summary aggregates latency outcomes.
type Summary struct {
	Events    int
	Detected  int
	MeanDelay time.Duration // over detected events only
	MaxDelay  time.Duration
}

// Summarize aggregates a latency slice.
func Summarize(ls []Latency) Summary {
	s := Summary{Events: len(ls)}
	var total time.Duration
	for _, l := range ls {
		if !l.Detected {
			continue
		}
		s.Detected++
		total += l.Delay
		if l.Delay > s.MaxDelay {
			s.MaxDelay = l.Delay
		}
	}
	if s.Detected > 0 {
		s.MeanDelay = total / time.Duration(s.Detected)
	}
	return s
}
