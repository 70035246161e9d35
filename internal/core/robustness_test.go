package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enblogue/internal/stream"
)

// The engine must tolerate out-of-order event times: in-window stragglers
// count, too-old ones drop, and ticking stays monotone.
func TestEngineOutOfOrderItems(t *testing.T) {
	e := New(testConfig())
	base := t0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		// Timestamps wander ±30 minutes around a moving front.
		jitter := time.Duration(rng.Intn(3600)-1800) * time.Second
		at := base.Add(time.Duration(i)*30*time.Second + jitter)
		e.Consume(&stream.Item{
			Time:  at,
			DocID: fmt.Sprintf("o%d", i),
			Tags:  []string{"news", fmt.Sprintf("t%d", rng.Intn(5))},
		})
	}
	e.Flush()
	if e.DocsProcessed() != 2000 {
		t.Errorf("DocsProcessed = %d", e.DocsProcessed())
	}
	r := e.CurrentRanking()
	if r.At.IsZero() {
		t.Error("no final ranking under out-of-order input")
	}
	for _, topic := range r.Topics {
		if topic.Score < 0 {
			t.Errorf("negative score: %+v", topic)
		}
	}
}

// A hard backwards time jump (misconfigured source clock) must not panic or
// corrupt state.
func TestEngineBackwardsTimeJump(t *testing.T) {
	e := New(testConfig())
	e.Consume(&stream.Item{Time: t0.Add(100 * time.Hour), DocID: "future", Tags: []string{"a", "b"}})
	e.Consume(&stream.Item{Time: t0, DocID: "past", Tags: []string{"a", "b"}})
	e.Consume(&stream.Item{Time: t0.Add(101 * time.Hour), DocID: "next", Tags: []string{"a", "b"}})
	e.Flush()
	if e.DocsProcessed() != 3 {
		t.Errorf("DocsProcessed = %d", e.DocsProcessed())
	}
}

// Items with enormous tag sets must be handled (quadratic pair generation
// is bounded by the tracker's MaxPairs budget).
func TestEngineWideTagSets(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPairs = 500
	e := New(cfg)
	var tags []string
	for i := 0; i < 100; i++ {
		tags = append(tags, fmt.Sprintf("wide%d", i))
	}
	for i := 0; i < 30; i++ {
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(i) * time.Minute),
			DocID: fmt.Sprintf("w%d", i),
			Tags:  tags,
		})
	}
	e.Flush()
	if got := e.ActivePairs(); got > 2*cfg.MaxPairs {
		t.Errorf("ActivePairs = %d, exceeds budget %d by more than sweep slack",
			got, cfg.MaxPairs)
	}
}

// Duplicate document IDs are the wrapper's problem (the engine counts
// every item it is given), but it must at least not misbehave when they
// slip through.
func TestEngineDuplicateDocIDs(t *testing.T) {
	e := New(testConfig())
	for i := 0; i < 300; i++ {
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(i) * time.Minute),
			DocID: "same-id",
			Tags:  []string{"a", "b"},
		})
	}
	e.Flush()
	if e.DocsProcessed() != 300 {
		t.Errorf("DocsProcessed = %d", e.DocsProcessed())
	}
}

// Zero-time items (unset timestamps from broken wrappers) must not wedge
// the tick scheduler permanently.
func TestEngineZeroTimeItem(t *testing.T) {
	e := New(testConfig())
	e.Consume(&stream.Item{DocID: "zero", Tags: []string{"a", "b"}})
	for i := 0; i < 100; i++ {
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(i) * time.Minute),
			DocID: fmt.Sprintf("n%d", i),
			Tags:  []string{"a", "b"},
		})
	}
	e.Flush()
	if e.CurrentRanking().At.IsZero() {
		t.Error("engine never ticked after zero-time item")
	}
}
