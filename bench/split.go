package main

import (
	"time"

	"enblogue/internal/stream"
)

// segment is a run of documents [Lo, Hi) of one pass. A Tick segment is
// the single document whose timestamp crosses one or more evaluation
// boundaries: handing it to ConsumeBatch alone makes that call's duration
// "the tick(s) plus one document". Every other segment is boundary-free.
type segment struct {
	Lo, Hi int
	Tick   bool
}

// tickClock mirrors the engine's event-time tick schedule from document
// times alone: armed one period after the first document, advanced one
// period per fired tick. (The engine's archive-gap fast-forward — a jump
// of more than a hundred periods — never triggers on generated streams,
// whose documents are at most one interval apart.)
type tickClock struct {
	Every time.Duration
	Next  time.Time
}

// crossed reports how many ticks fire before a document at time t is
// observed, advancing the clock past them.
func (c *tickClock) crossed(t time.Time) int {
	if c.Next.IsZero() {
		c.Next = t.Add(c.Every)
		return 0
	}
	n := 0
	for !c.Next.After(t) {
		c.Next = c.Next.Add(c.Every)
		n++
	}
	return n
}

// splitAtTicks cuts items exactly at the tick boundaries the clock computes
// from their times, and caps boundary-free runs at maxRun documents.
// ConsumeBatch is bit-identical for every batch split, so feeding the
// segments one by one yields the rankings of any other batching — which is
// what lets a traced run time consume and tick separately without touching
// an engine option.
func splitAtTicks(items []*stream.Item, clock *tickClock, maxRun int, segs []segment) []segment {
	lo := 0
	for i, it := range items {
		if clock.crossed(it.Time) > 0 {
			if i > lo {
				segs = append(segs, segment{Lo: lo, Hi: i})
			}
			segs = append(segs, segment{Lo: i, Hi: i + 1, Tick: true})
			lo = i + 1
			continue
		}
		if i-lo == maxRun {
			segs = append(segs, segment{Lo: lo, Hi: i})
			lo = i
		}
	}
	if lo < len(items) {
		segs = append(segs, segment{Lo: lo, Hi: len(items)})
	}
	return segs
}
