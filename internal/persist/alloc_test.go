package persist

import (
	"fmt"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// The WAL rides the engine's zero-allocation ingest path: the record
// encoder appends into one reusable commit buffer, handed to the file in
// one Write per commit, so enabling durability must cost at most one
// allocation per document in steady state — the acceptance bound — and in
// practice costs none once the buffer has grown to the record size.

// allocItems is a fixed in-window stream over a small vocabulary, so a
// warmed engine re-consuming it creates no tags, pairs, or ticks.
func allocItems(n int) []*stream.Item {
	base := time.Date(2011, 6, 1, 12, 0, 0, 0, time.UTC)
	items := make([]*stream.Item, n)
	for i := range items {
		items[i] = &stream.Item{
			Time:  base.Add(time.Duration(i) * time.Second),
			DocID: fmt.Sprintf("d%d", i),
			Tags: []string{
				fmt.Sprintf("a%d", i%7),
				fmt.Sprintf("b%d", i%5),
			},
		}
	}
	return items
}

func consumeAllocs(t *testing.T, e *core.Engine, items []*stream.Item) float64 {
	t.Helper()
	for range [3]int{} { // warm: intern vocabulary, grow the WAL buffer
		for _, it := range items {
			e.Consume(it)
		}
	}
	return testing.AllocsPerRun(50, func() {
		for _, it := range items {
			e.Consume(it)
		}
	})
}

func TestWALAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	items := allocItems(100)
	cfg := testConfig(1)
	cfg.TickEvery = 1000 * time.Hour // keep ticks out of the measurement

	plain := core.New(cfg)
	defer plain.Close()
	base := consumeAllocs(t, plain, items)

	durable := core.New(durableConfig(cfg, t.TempDir()))
	defer durable.Close()
	walled := consumeAllocs(t, durable, items)

	// The acceptance bound: ≤ 1 extra allocation per document with the WAL
	// enabled. The implementation target is zero — the whole budget is
	// headroom for map-rehash noise, same as the core pins.
	if extra := walled - base; extra > float64(len(items)) {
		t.Errorf("WAL adds %.1f allocs per %d docs (%.1f vs %.1f), want ≤1/doc",
			extra, len(items), walled, base)
	}
	if walled > base+3 {
		t.Errorf("WAL steady state allocates %.1f per %d docs vs %.1f baseline, want ~0 extra",
			walled, len(items), base)
	}
}
