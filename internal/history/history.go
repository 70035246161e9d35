// Package history records the engine's per-tick rankings and answers
// time-range queries over them — the interactive part of show case 1:
// "users can specify their own time ranges and see how the ranking changes
// with different time periods."
//
// A History is an append-only, time-ordered log of rankings. Range queries
// aggregate a topic's score over the requested period (maximum by default,
// mirroring the engine's max-of-decayed-errors semantics), so the answer to
// "what was emergent during the first week of September" is the topics that
// peaked then, not merely the ones alive at the range's end.
package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
)

// Aggregate selects how a topic's scores are combined across the ticks of
// a queried range.
type Aggregate int

const (
	// MaxScore ranks topics by their peak score inside the range.
	MaxScore Aggregate = iota
	// MeanScore ranks topics by their average score over the ticks where
	// they appeared.
	MeanScore
	// LastScore ranks topics by their score at the last tick of the range.
	LastScore
)

// String returns the aggregate name.
func (a Aggregate) String() string {
	switch a {
	case MaxScore:
		return "max"
	case MeanScore:
		return "mean"
	case LastScore:
		return "last"
	default:
		return fmt.Sprintf("aggregate(%d)", int(a))
	}
}

// ParseAggregate resolves an aggregate by name.
func ParseAggregate(name string) (Aggregate, error) {
	switch name {
	case "max", "":
		return MaxScore, nil
	case "mean":
		return MeanScore, nil
	case "last":
		return LastScore, nil
	default:
		return 0, fmt.Errorf("history: unknown aggregate %q", name)
	}
}

// Entry is one topic's aggregate over a queried range.
type Entry struct {
	Pair  pairs.Key
	Score float64
	// Ticks is the number of range ticks the topic appeared in.
	Ticks int
	// First and Last bound the topic's appearances inside the range.
	First, Last time.Time
}

// History is a bounded, time-ordered ranking log. It is safe for concurrent
// use: the engine's consuming goroutine records while front-end handlers
// query.
type History struct {
	mu       sync.RWMutex
	rankings []core.Ranking
	maxTicks int
}

// New returns a history retaining up to maxTicks rankings (oldest evicted
// first). maxTicks <= 0 means 10000.
func New(maxTicks int) *History {
	if maxTicks <= 0 {
		maxTicks = 10000
	}
	return &History{maxTicks: maxTicks}
}

// Record appends one ranking. Out-of-order rankings (At before the last
// recorded tick) are rejected so binary search stays valid.
func (h *History) Record(r core.Ranking) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.rankings); n > 0 && r.At.Before(h.rankings[n-1].At) {
		return fmt.Errorf("history: out-of-order tick %v before %v",
			r.At, h.rankings[n-1].At)
	}
	h.rankings = append(h.rankings, r)
	if len(h.rankings) > h.maxTicks {
		// Drop the oldest ticks; copy to release the old backing array.
		keep := make([]core.Ranking, h.maxTicks)
		copy(keep, h.rankings[len(h.rankings)-h.maxTicks:])
		h.rankings = keep
	}
	return nil
}

// slice returns the retained rankings with At in [from, to]. Zero bounds
// are open on that side.
func (h *History) slice(from, to time.Time) []core.Ranking {
	lo := 0
	if !from.IsZero() {
		lo = sort.Search(len(h.rankings), func(i int) bool {
			return !h.rankings[i].At.Before(from)
		})
	}
	hi := len(h.rankings)
	if !to.IsZero() {
		hi = sort.Search(len(h.rankings), func(i int) bool {
			return h.rankings[i].At.After(to)
		})
	}
	if lo > hi {
		return nil
	}
	return h.rankings[lo:hi]
}

// TopInRange returns the k topics with the highest aggregate score over the
// ticks in [from, to] (zero times are open bounds), best first, ties broken
// by pair string.
func (h *History) TopInRange(from, to time.Time, k int, agg Aggregate) []Entry {
	if k <= 0 {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	ticks := h.slice(from, to)
	if len(ticks) == 0 {
		return nil
	}
	acc := make(map[pairs.Key]*Entry)
	for _, r := range ticks {
		for _, t := range r.Topics {
			e, ok := acc[t.Pair]
			if !ok {
				e = &Entry{Pair: t.Pair, First: r.At}
				acc[t.Pair] = e
			}
			e.Ticks++
			e.Last = r.At
			switch agg {
			case MeanScore:
				e.Score += t.Score // normalised below
			case LastScore:
				e.Score = t.Score
			default: // MaxScore
				if t.Score > e.Score {
					e.Score = t.Score
				}
			}
		}
	}
	out := make([]Entry, 0, len(acc))
	for _, e := range acc {
		if agg == MeanScore && e.Ticks > 0 {
			e.Score /= float64(e.Ticks)
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pair.String() < out[j].Pair.String()
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Trajectory returns the (tick, rank, score) samples of one pair across the
// ticks in [from, to]; rank is -1 at ticks where the pair was absent.
func (h *History) Trajectory(p pairs.Key, from, to time.Time) []TrajPoint {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ticks := h.slice(from, to)
	out := make([]TrajPoint, 0, len(ticks))
	for _, r := range ticks {
		pt := TrajPoint{At: r.At, Rank: -1}
		for i, t := range r.Topics {
			if t.Pair == p {
				pt.Rank = i
				pt.Score = t.Score
				break
			}
		}
		out = append(out, pt)
	}
	return out
}

// TrajPoint is one tick's view of a single topic.
type TrajPoint struct {
	At    time.Time
	Rank  int
	Score float64
}
