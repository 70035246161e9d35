package persist

import (
	"fmt"
	"io"
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

// snapshotEngine feeds an engine eight hours of documents, each pairing one
// of four hot tags (always seeds) with two tags of a vocabulary of the given
// size, so the tracker holds about 4×vocab pairs and the detector one state
// per evaluated seed pair.
func snapshotEngine(t testing.TB, vocab int) *core.Engine {
	t.Helper()
	cfg := testConfig(4)
	cfg.SeedCount = 8
	e := core.New(cfg)
	t.Cleanup(e.Close)
	base := time.Date(2011, 6, 1, 12, 0, 0, 0, time.UTC)
	state := uint64(0x853c49e6748fea9b)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % vocab
	}
	const docs = 16000
	items := make([]*stream.Item, docs)
	for i := range items {
		items[i] = &stream.Item{
			Time:  base.Add(time.Duration(i) * 8 * time.Hour / docs),
			DocID: fmt.Sprintf("s%d", i),
			Tags:  []string{fmt.Sprintf("hot%d", i%4), fmt.Sprintf("v%d", next()), fmt.Sprintf("v%d", next())},
		}
	}
	e.ConsumeBatch(items)
	return e
}

// TestSnapshotExportAllocsFlat counts the allocations of one full state
// export. Every section writes its columns and histories into one backing
// array and orders itself with one tag ranking, so the count is a small
// constant that does not grow with the number of pairs.
func TestSnapshotExportAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var allocs [2]float64
	for i, vocab := range []int{1500, 3000} {
		e := snapshotEngine(t, vocab)
		st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
		t.Logf("vocab %d: %d tags, %d tracker pairs, %d detector pairs", vocab, len(st.Tags.Tags), len(st.Pairs.Pairs), len(st.Det.Pairs))
		if i == 0 && (len(st.Pairs.Pairs) < 5000 || len(st.Det.Pairs) < 1000) {
			t.Fatalf("fixture too small: %d tracker pairs, %d detector pairs", len(st.Pairs.Pairs), len(st.Det.Pairs))
		}
		allocs[i] = testing.AllocsPerRun(3, func() { e.SnapshotState(nil) }) //nolint:errcheck // a nil rotate cannot fail
		t.Logf("vocab %d: %.0f allocations per export", vocab, allocs[i])
	}
	if allocs[1] > allocs[0] {
		t.Errorf("export allocations grow with the pair count: %.0f, then %.0f at twice the vocabulary", allocs[0], allocs[1])
	}
	if allocs[1] > 100 {
		t.Errorf("export allocates %.0f times, want a small constant", allocs[1])
	}
}

// TestSnapshotCodecAllocs pins the codec's half of the bill: the encoder
// streams through one reused chunk, so its allocations — the key table and
// the chunk — do not grow with the pair count, and the decoder carves slot
// columns and predictor rings out of a chunk that grows geometrically, so
// its allocations grow with the logarithm of the pair count rather than
// with the count.
func TestSnapshotCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var enc, dec [2]float64
	for i, vocab := range []int{1500, 3000} {
		e := snapshotEngine(t, vocab)
		st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
		enc[i] = testing.AllocsPerRun(3, func() {
			if err := encodeSnapshot(io.Discard, testConfig(4), &st); err != nil {
				t.Fatal(err)
			}
		})
		data := snapshotBytes(testConfig(4), &st)
		dec[i] = testing.AllocsPerRun(3, func() {
			if _, err := decodeSnapshot(data, fingerprintOf(testConfig(4))); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("vocab %d: %d pairs, %d detector states: %.0f encode, %.0f decode allocations",
			vocab, len(st.Pairs.Pairs), len(st.Det.Pairs), enc[i], dec[i])
	}
	if enc[1] != enc[0] {
		t.Errorf("encode allocations %.0f, then %.0f at twice the pairs; want the same count", enc[0], enc[1])
	}
	if dec[1] > dec[0]+4 || dec[1] > 100 {
		t.Errorf("decode allocations %.0f, then %.0f at twice the pairs; want a slowly growing small count", dec[0], dec[1])
	}
}

// BenchmarkSnapshotEncode times one full state export plus its encoding —
// the part of Store.Snapshot that runs before any file I/O — over about
// 10k tracker pairs and 11k detector states.
func BenchmarkSnapshotEncode(b *testing.B) {
	e := snapshotEngine(b, 3000)
	cfg := testConfig(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := e.SnapshotState(nil)        // a nil rotate cannot fail
		encodeSnapshot(io.Discard, cfg, &st) //nolint:errcheck // io.Discard cannot fail
	}
}
