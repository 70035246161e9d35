package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/source"
	"enblogue/internal/stream"
	"enblogue/internal/window"
)

// The persist test binary wires the durability hook itself — in production
// the root enblogue package does this from init, but persist cannot import
// it (the dependency points the other way).
func init() { core.SetDurabilityHook(Attach) }

// testItems returns a deterministic workload: a few thousand synthetic
// tweets spanning enough event time for several evaluation ticks.
func testItems(t testing.TB) []*stream.Item {
	t.Helper()
	docs := source.GenerateTweets(source.TweetConfig{
		Seed: 7, Span: 6 * time.Hour, TweetsPerMinute: 8,
	})
	items := make([]*stream.Item, len(docs))
	for i := range docs {
		items[i] = docs[i].Item()
	}
	return items
}

// testConfig is a small but tick-active engine configuration.
func testConfig(shards int) core.Config {
	return core.Config{
		WindowBuckets:    6,
		WindowResolution: time.Hour,
		TickEvery:        time.Hour,
		SeedCount:        10,
		SeedWarmupDocs:   20,
		MinCooccurrence:  1,
		TopK:             10,
		Shards:           shards,
	}
}

// durableConfig enables persistence on cfg with the background ticker off
// (tests snapshot explicitly) and fsync off (same-process "crashes" never
// lose page-cache writes).
func durableConfig(cfg core.Config, dir string) core.Config {
	cfg.Durability = core.DurabilityConfig{
		Dir:           dir,
		SnapshotEvery: -1,
		Fsync:         core.FsyncNever,
	}
	return cfg
}

// snapshotBytes encodes st as a whole snapshot file in memory.
func snapshotBytes(cfg core.Config, st *core.EngineState) []byte {
	var buf bytes.Buffer
	encodeSnapshot(&buf, cfg, st) //nolint:errcheck // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// stateBytes canonically encodes e's full state; two engines in the same
// semantic state produce identical bytes regardless of shard count, intern
// order, or durability settings.
func stateBytes(e *core.Engine) []byte {
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	return snapshotBytes(e.Config(), &st)
}

// mustEqualState fails unless both engines hold bit-identical state.
func mustEqualState(t *testing.T, want, got *core.Engine) {
	t.Helper()
	wb, gb := stateBytes(want), stateBytes(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("engine states diverge: %d vs %d canonical bytes (docs %d vs %d)",
			len(wb), len(gb), want.DocsProcessed(), got.DocsProcessed())
	}
}

// reference builds a never-persisted engine fed items[:n] — the state every
// recovery in these tests must reproduce exactly.
func reference(items []*stream.Item, n, shards int) *core.Engine {
	e := core.New(testConfig(shards))
	e.ConsumeBatch(items[:n])
	return e
}

// TestRecoverFromWALOnly crashes before any snapshot exists: recovery is a
// pure WAL replay from document one.
func TestRecoverFromWALOnly(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items)
	// Abandon a without Close: the crash. Same-process writes are visible.

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if got, want := b.DocsProcessed(), int64(len(items)); got != want {
		t.Fatalf("recovered %d docs, want %d", got, want)
	}
	mustEqualState(t, reference(items, len(items), 2), b)
	if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
		t.Fatalf("recovery not clean: ok=%v lastErr=%q", ok, st.LastErr)
	}
}

// TestRecoverSnapshotPlusTail snapshots mid-stream, keeps consuming, then
// crashes: recovery is snapshot + WAL tail replay, bit-identical to an
// engine that never stopped.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	items := testItems(t)
	snapAt := len(items) / 3
	crashAt := 2 * len(items) / 3
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(4), dir))
	a.ConsumeBatch(items[:snapAt])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a.ConsumeBatch(items[snapAt:crashAt])
	// Crash.

	b := core.New(durableConfig(testConfig(4), dir))
	defer b.Close()
	if got, want := b.DocsProcessed(), int64(crashAt); got != want {
		t.Fatalf("recovered %d docs, want %d", got, want)
	}
	// The recovered engine keeps ranking identically on the rest of the
	// stream — the durable restart is invisible to the output.
	b.ConsumeBatch(items[crashAt:])
	mustEqualState(t, reference(items, len(items), 4), b)
}

// TestRecoverAcrossShardCounts restores a snapshot written by a 1-shard
// engine into an 8-shard engine: shard count is excluded from the config
// fingerprint and the state is shard-layout independent.
func TestRecoverAcrossShardCounts(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(1), dir))
	a.ConsumeBatch(items[:len(items)/2])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a.Close()

	b := core.New(durableConfig(testConfig(8), dir))
	defer b.Close()
	b.ConsumeBatch(items[len(items)/2:])
	mustEqualState(t, reference(items, len(items), 8), b)
}

// TestTornTailStopsCleanly cuts the final WAL record mid-line — the normal
// crash artifact — and expects recovery to stop exactly at the last
// complete record with no warning.
func TestTornTailStopsCleanly(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items[:800])
	a.Close()

	seg := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Chop the last record roughly in half, leaving no trailing newline.
	lastNL := bytes.LastIndexByte(data[:len(data)-1], '\n')
	cut := lastNL + (len(data)-lastNL)/2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatalf("truncate segment: %v", err)
	}

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
		t.Fatalf("recovery with torn tail warned: ok=%v lastErr=%q", ok, st.LastErr)
	}
	if pos := b.DocsProcessed(); pos != 799 {
		t.Fatalf("recovered position = %d, want 799 (torn record dropped)", pos)
	}
	mustEqualState(t, reference(items, 799, 2), b)
}

// TestSequenceGapIsStrictError deletes a WAL record: recovery must keep
// the trustworthy prefix and surface the gap as an error. The gap is a
// middle document, or the document just before a forced tick — a tick
// replayed across a gap would land at the wrong stream position.
func TestSequenceGapIsStrictError(t *testing.T) {
	items := testItems(t)
	for _, tc := range []struct {
		name       string
		tick, drop int // tick: force a tick after 600 docs; drop: line index removed
		keep       int
	}{
		{name: "document", drop: 300, keep: 300},
		{name: "before-tick", tick: 1, drop: 599, keep: 599},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a := core.New(durableConfig(testConfig(2), dir))
			a.ConsumeBatch(items[:600])
			if tc.tick > 0 {
				a.Tick(a.LastEventTime())
			}
			a.Close()

			seg := filepath.Join(dir, walName(0))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			lines := bytes.SplitAfter(data, []byte{'\n'})
			mut := append(append([]byte(nil), bytes.Join(lines[:tc.drop], nil)...), bytes.Join(lines[tc.drop+1:], nil)...)
			if err := os.WriteFile(seg, mut, 0o644); err != nil {
				t.Fatalf("rewrite segment: %v", err)
			}

			b := core.New(durableConfig(testConfig(2), dir))
			defer b.Close()
			if got := b.DocsProcessed(); got != int64(tc.keep) {
				t.Fatalf("graceful recovery kept %d docs, want the %d-doc prefix", got, tc.keep)
			}
			st, ok := b.DurabilityStats()
			if !ok || !strings.Contains(st.LastErr, "sequence gap") {
				t.Fatalf("graceful recovery did not surface the gap: ok=%v lastErr=%q", ok, st.LastErr)
			}
			mustEqualState(t, reference(items, tc.keep, 2), b)
		})
	}
}

// TestTickAtSnapshotEpoch forces a tick at the snapshot's document count,
// once just before the snapshot and once just after. Before, the tick sits
// in the old segment and the snapshot covers it, so replay must drop it;
// after, it opens the new segment and replay must apply it. Either way the
// recovered engine holds the tick exactly once: its evaluation clock equals
// that of an engine that took the tick and never crashed, and so does every
// ranking it publishes over the rest of the stream. (Canonical bytes are
// not compared: after a tick right after a restore, some detector decay
// anchors differ in representation from the never-restored engine's — the
// visit-versus-prune path dependence of ROADMAP item 1(a).)
func TestTickAtSnapshotEpoch(t *testing.T) {
	items := testItems(t)
	snapAt, crashAt := len(items)/3, len(items)/2
	for _, before := range []bool{true, false} {
		name := map[bool]string{true: "before-snapshot", false: "after-snapshot"}[before]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := core.New(durableConfig(testConfig(2), dir))
			a.ConsumeBatch(items[:snapAt])
			at := a.LastEventTime()
			force := func() {
				if r := a.Tick(at); !r.At.Equal(at) {
					t.Fatalf("Tick(%v) refused; the case would test nothing", at)
				}
			}
			if before {
				force()
			}
			if err := a.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if !before {
				force()
			}
			a.ConsumeBatch(items[snapAt:crashAt])
			// Crash.

			seg := walName(int64(snapAt))
			if before {
				seg = walName(0)
			}
			data, err := os.ReadFile(filepath.Join(dir, seg))
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			if tick := string(appendTickRecord(nil, int64(snapAt), at)); !strings.Contains(string(data), tick) {
				t.Fatalf("segment %s lacks the tick record %q", seg, tick)
			}

			ref := reference(items, snapAt, 2)
			ref.Tick(at)
			ref.ConsumeBatch(items[snapAt:crashAt])
			b := core.New(durableConfig(testConfig(2), dir))
			defer b.Close()
			if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
				t.Fatalf("recovery not clean: ok=%v lastErr=%q", ok, st.LastErr)
			}
			ws, _ := ref.SnapshotState(nil)
			gs, _ := b.SnapshotState(nil)
			if gs.Docs != ws.Docs || gs.LastTickNano != ws.LastTickNano || gs.Det.TickCount != ws.Det.TickCount {
				t.Fatalf("recovered clock (docs %d, last tick %d, round %d), want (%d, %d, %d)",
					gs.Docs, gs.LastTickNano, gs.Det.TickCount, ws.Docs, ws.LastTickNano, ws.Det.TickCount)
			}
			for lo := crashAt; lo < len(items); lo += 64 {
				batch := items[lo:min(lo+64, len(items))]
				ref.ConsumeBatch(batch)
				b.ConsumeBatch(batch)
				if w, g := ref.CurrentRanking(), b.CurrentRanking(); !reflect.DeepEqual(w, g) {
					t.Fatalf("after doc %d the recovered ranking diverges:\n got  %+v\n want %+v", lo+len(batch), g, w)
				}
			}
		})
	}
}

// TestFingerprintMismatch writes a snapshot under one semantic
// configuration and recovers under another: the snapshot is skipped, and
// the reported error names the configuration, not a decoding failure.
func TestFingerprintMismatch(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items[:500])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a.Close()

	cfg := testConfig(2)
	cfg.WindowBuckets = 12 // semantic change: different window geometry
	b := core.New(durableConfig(cfg, dir))
	defer b.Close()
	if st, ok := b.DurabilityStats(); !ok || !strings.Contains(st.LastErr, "configuration") {
		t.Fatalf("recovery across configs: ok=%v lastErr=%q, want a configuration error", ok, st.LastErr)
	}
}

// oversizedSnapshot is a small, checksum-valid snapshot of one document
// that claims a window of 1<<20 buckets: each of its all-zero slots is 25
// encoded bytes but would decode to 8 MiB of floats.
func oversizedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	cfg := testConfig(1)
	e := core.New(cfg)
	defer e.Close()
	e.ConsumeBatch(goldenItems()[:1])
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	wide := make([]float64, 1<<20)
	st.Tags.Docs.Vals = wide
	for i := range st.Tags.Tags {
		st.Tags.Tags[i].Window = window.SlotState{Vals: wide}
	}
	for i := range st.Pairs.Pairs {
		st.Pairs.Pairs[i].Window = window.SlotState{Vals: wide}
	}
	cfg.WindowBuckets = 1 << 20
	return snapshotBytes(cfg, &st)
}

// TestFingerprintMismatchDecodesNoBody recovers from a snapshot whose
// fingerprint claims a huge window: it must be refused on its fingerprint
// alone, before any section sized by that window is decoded.
func TestFingerprintMismatchDecodesNoBody(t *testing.T) {
	data := oversizedSnapshot(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(4)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e := core.New(testConfig(1))
	defer e.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := recoverInto(dir, e, e.Config())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("recoverInto: %v", err)
	}
	if !strings.Contains(res.warn, "configuration") || e.DocsProcessed() != 0 {
		t.Fatalf("warn %q, %d docs restored; want a configuration refusal and nothing restored", res.warn, e.DocsProcessed())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a %d-byte snapshot allocated %d bytes, want < 1 MiB", len(data), got)
	}
}

// TestCorruptSnapshotFallsBack flips bytes in the newest snapshot: the
// attach path must fall back to the previous generation plus WAL replay
// and still recover the full stream position.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items[:400])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot 1: %v", err)
	}
	a.ConsumeBatch(items[400:900])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot 2: %v", err)
	}
	a.ConsumeBatch(items[900:1100])
	a.Close()

	snap := filepath.Join(dir, snapName(900))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if got, want := b.DocsProcessed(), int64(1100); got != want {
		t.Fatalf("recovered %d docs, want %d (older snapshot + full WAL tail)", got, want)
	}
	st, _ := b.DurabilityStats()
	if !strings.Contains(st.LastErr, "checksum") && !strings.Contains(st.LastErr, "corrupt") {
		t.Fatalf("fallback did not surface the corruption: lastErr=%q", st.LastErr)
	}
	mustEqualState(t, reference(items, 1100, 2), b)
}

// TestPruneRetainsRecoverableSet takes several snapshots with
// KeepSnapshots=1 and checks that pruning never removes files recovery
// still needs.
func TestPruneRetainsRecoverableSet(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	cfg := durableConfig(testConfig(2), dir)
	cfg.Durability.KeepSnapshots = 1
	a := core.New(cfg)
	for _, cutoff := range []int{300, 600, 900} {
		a.ConsumeBatch(items[a.DocsProcessed():int64(cutoff)])
		if err := a.Snapshot(); err != nil {
			t.Fatalf("Snapshot at %d: %v", cutoff, err)
		}
	}
	a.ConsumeBatch(items[900:1000])
	a.Close()

	if snaps := listEpochs(dir, snapPrefix, snapSuffix); len(snaps) != 1 || snaps[0] != 900 {
		t.Fatalf("kept snapshots %v, want [900]", snaps)
	}
	for _, seg := range listEpochs(dir, walPrefix, walSuffix) {
		if seg < 900 {
			t.Fatalf("segment %d survived pruning below the kept snapshot", seg)
		}
	}

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if got := b.DocsProcessed(); got != 1000 {
		t.Fatalf("recovered %d docs after pruning, want 1000", got)
	}
	mustEqualState(t, reference(items, 1000, 2), b)
}

// TestStatsSurface sanity-checks the DurabilityStats wiring end to end.
func TestStatsSurface(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	e := core.New(durableConfig(testConfig(2), dir))
	defer e.Close()
	e.ConsumeBatch(items[:200])
	if err := e.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e.ConsumeBatch(items[200:300])
	st, ok := e.DurabilityStats()
	if !ok {
		t.Fatal("DurabilityStats: durability not attached")
	}
	if st.SnapshotEpoch != 200 {
		t.Errorf("SnapshotEpoch = %d, want 200", st.SnapshotEpoch)
	}
	if st.WALSegments == 0 || st.WALBytes == 0 {
		t.Errorf("WAL sizing empty: segments=%d bytes=%d", st.WALSegments, st.WALBytes)
	}
	if st.LastSnapshotAt.IsZero() {
		t.Error("LastSnapshotAt is zero after a successful snapshot")
	}
	if st.LastErr != "" {
		t.Errorf("LastErr = %q, want clean", st.LastErr)
	}

	plain := core.New(testConfig(1))
	defer plain.Close()
	if _, ok := plain.DurabilityStats(); ok {
		t.Error("DurabilityStats reported ok on a non-durable engine")
	}
	if err := plain.Snapshot(); err != core.ErrNoDurability {
		t.Errorf("Snapshot on non-durable engine = %v, want ErrNoDurability", err)
	}
}

// TestWALRecordRoundTrip pins the hand-rolled encoders against the
// decoder across the field shapes the engine emits — documents and forced
// ticks — and pins that a document line written before tick records
// existed still decodes unchanged.
func TestWALRecordRoundTrip(t *testing.T) {
	cases := []*stream.Item{
		{Time: time.Unix(0, 1234567890).UTC()},
		{Time: time.Unix(1700000000, 42).UTC(), DocID: "doc-1", Tags: []string{"a", "b"}},
		{Time: time.Unix(0, 7).UTC(), Tags: []string{"x"}, Entities: []string{"Athens", "SIGMOD"},
			Text: "quote \" backslash \\ newline \n tab \t control \x01 done", Source: "feed"},
		{Time: time.Unix(0, -5).UTC(), DocID: "päivä 🎈", Tags: []string{"ünïcode"}},
		// Invalid UTF-8 comes back byte for byte, not as U+FFFD.
		{Time: time.Unix(0, 9).UTC(), DocID: "\xff\xfe", Tags: []string{"a\xff", "\xc3", ""},
			Text: "cut \xe2\x82 short \x7f", Source: "\x80"},
	}
	for i, it := range cases {
		line := appendWALRecord(nil, int64(i+1), it)
		rec, err := decodeWALLine(line)
		if err != nil {
			t.Fatalf("case %d: decode: %v (line %q)", i, err, line)
		}
		if rec.seq != int64(i+1) {
			t.Fatalf("case %d: seq = %d, want %d", i, rec.seq, i+1)
		}
		if !reflect.DeepEqual(rec.item, it) {
			t.Fatalf("case %d: round trip mismatch:\n got  %+v\n want %+v", i, rec.item, it)
		}
	}

	for _, seq := range []int64{0, 17} {
		at := time.Unix(1700000000, 99).UTC()
		line := appendTickRecord(nil, seq, at)
		rec, err := decodeWALLine(line)
		if err != nil {
			t.Fatalf("tick at seq %d: decode: %v (line %q)", seq, err, line)
		}
		if rec.item != nil || rec.seq != seq || !rec.tick.Equal(at) {
			t.Fatalf("tick at seq %d: round trip = %+v", seq, rec)
		}
	}

	// A document line in the original encoding, byte for byte.
	old := []byte(`{"seq":3,"t":1700000000000000042,"id":"d","tags":["a","b"],"src":"feed"}`)
	rec, err := decodeWALLine(old)
	if err != nil {
		t.Fatalf("original document line: %v", err)
	}
	want := &stream.Item{Time: time.Unix(1700000000, 42).UTC(), DocID: "d", Tags: []string{"a", "b"}, Source: "feed"}
	if rec.seq != 3 || !reflect.DeepEqual(rec.item, want) {
		t.Fatalf("original document line decoded to %+v, want seq 3 %+v", rec, want)
	}
	if got := appendWALRecord(nil, 3, want); !bytes.Equal(bytes.TrimSpace(got), old) {
		t.Fatalf("document encoding changed:\n got  %s\n want %s", got, old)
	}
}

// tailConfig is testConfig with the tiered sketch tail enabled and a
// MaxPairs cap small enough that the test workload overflows it, so the
// tail actually absorbs demotions.
func tailConfig(shards int) core.Config {
	cfg := testConfig(shards)
	cfg.MaxPairs = 200
	cfg.TailSketch = core.TailSketchConfig{
		Enabled: true, Epsilon: 0.01, Delta: 0.01, TopK: 128,
	}
	return cfg
}

// TestTailSketchColdStartEmpty pins the tier persistence decision: the
// sketch tail is excluded from snapshots (and from the config fingerprint,
// see encode.go). The exact tier round-trips bit-identically while the
// recovered tail starts empty — estimates are upper bounds over already-
// evicted mass, not durable state.
func TestTailSketchColdStartEmpty(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()

	a := core.New(durableConfig(tailConfig(2), dir))
	a.ConsumeBatch(items)
	if before := a.TailStats(); !before.Enabled || before.TailPairs == 0 {
		t.Fatalf("workload never populated the tail: %+v", before)
	}
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a.Close()

	b := core.New(durableConfig(tailConfig(2), dir))
	defer b.Close()
	// The exact tier restores bit-identically to an engine that never
	// stopped...
	ref := core.New(tailConfig(2))
	ref.ConsumeBatch(items)
	mustEqualState(t, ref, b)
	// ...while the tail, and with it every approximate flag, cold-starts
	// empty.
	if after := b.TailStats(); after.TailPairs != 0 || after.Promotions != 0 || after.ApproxSeededPairs != 0 {
		t.Fatalf("recovered tail not empty: %+v", after)
	}
}

// TestTailSketchFingerprintCompatible crosses the tier-enabled/disabled
// boundary in both directions: the tail is not part of the snapshot
// fingerprint, so pre-tier snapshots restore into tier-enabled engines and
// vice versa with no format change.
func TestTailSketchFingerprintCompatible(t *testing.T) {
	items := testItems(t)
	exact := func(shards int) core.Config {
		cfg := tailConfig(shards)
		cfg.TailSketch = core.TailSketchConfig{}
		return cfg
	}

	for _, tc := range []struct {
		name        string
		write, read func(int) core.Config
	}{
		{"exact-into-tiered", exact, tailConfig},
		{"tiered-into-exact", tailConfig, exact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a := core.New(durableConfig(tc.write(2), dir))
			a.ConsumeBatch(items[:1000])
			if err := a.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			a.Close()

			b := core.New(durableConfig(tc.read(2), dir))
			defer b.Close()
			if got, want := b.DocsProcessed(), int64(1000); got != want {
				t.Fatalf("recovered %d docs, want %d", got, want)
			}
			if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
				t.Fatalf("recovery not clean: ok=%v lastErr=%q", ok, st.LastErr)
			}
		})
	}
}
