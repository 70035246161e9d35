package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// Group commit: the WAL writes once per commit — before each ranking a
// batch publishes and when the batch returns — not once per document.
// Recovery reads only the segments the restored snapshot does not cover.

// minuteItems is a stream of n documents one minute apart over a small
// vocabulary: with hourly ticks, document i (0-based) is the first after
// the tick boundary exactly when i is a positive multiple of 60.
func minuteItems(n int) []*stream.Item {
	base := time.Date(2011, 6, 1, 12, 0, 0, 0, time.UTC)
	items := make([]*stream.Item, n)
	for i := range items {
		items[i] = &stream.Item{
			Time:  base.Add(time.Duration(i) * time.Minute),
			DocID: fmt.Sprintf("d%d", i),
			Tags:  []string{fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%5), "common"},
		}
	}
	return items
}

// countingFile counts the Write calls that reach a WAL segment and, when
// gate is set, calls it before each one with the call's 1-based number.
type countingFile struct {
	walFile
	writes atomic.Int64
	gate   func(n int64)
}

func (c *countingFile) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.gate != nil {
		c.gate(n)
	}
	return c.walFile.Write(p)
}

// rotateCounted snapshots e so that its store opens the next WAL segment
// through the create seam, wrapped in a countingFile. It returns the file
// and the segment's path.
func rotateCounted(t *testing.T, e *core.Engine, s *Store, gate func(int64)) (*countingFile, string) {
	t.Helper()
	var cf *countingFile
	var path string
	s.create = func(p string) (walFile, error) {
		f, err := osCreate(p)
		if err != nil || !strings.HasPrefix(filepath.Base(p), walPrefix) {
			return f, err
		}
		cf, path = &countingFile{walFile: f, gate: gate}, p
		return cf, nil
	}
	if err := e.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if cf == nil {
		t.Fatal("rotation did not open a segment through the create seam")
	}
	return cf, path
}

// TestConsumeBatchWritesOncePerCommit pins the write count: a batch with no
// tick inside is one Write, and a batch with one tick inside is two — the
// commit before the ranking is published and the one before the batch
// returns.
func TestConsumeBatchWritesOncePerCommit(t *testing.T) {
	items := minuteItems(200)
	e, s := openCaptured(t, durableConfig(testConfig(2), t.TempDir()))
	defer e.Close()
	e.ConsumeBatch(items[:10])
	cf, _ := rotateCounted(t, e, s, nil)

	e.ConsumeBatch(items[10:50]) // within the first hour: no tick
	if n := cf.writes.Load(); n != 1 {
		t.Fatalf("a batch without a tick issued %d WAL writes, want 1", n)
	}
	e.ConsumeBatch(items[50:100]) // the tick before document 60
	if n := cf.writes.Load(); n != 3 {
		t.Fatalf("a batch with one tick issued %d WAL writes, want 2", n-1)
	}
}

// TestRankingPublishedAfterItsInputsAreLogged hands a sink the ranking a
// batch publishes in its middle, and holds the batch's final commit until
// the sink has read the WAL: every document before the tick must already
// be in the file, and none after it.
func TestRankingPublishedAfterItsInputsAreLogged(t *testing.T) {
	items := minuteItems(120)
	e, s := openCaptured(t, durableConfig(testConfig(2), t.TempDir()))
	defer e.Close()
	e.ConsumeBatch(items[:30])

	read := make(chan struct{})
	var gateErr atomic.Value
	cf, path := rotateCounted(t, e, s, func(n int64) {
		if n != 2 {
			return
		}
		select {
		case <-read:
		case <-time.After(10 * time.Second):
			gateErr.Store("the sink did not run while the batch was held")
		}
	})

	var logged int64 = -1
	var once atomic.Bool
	e.Subscribe(nil, core.SubSink(func(n *core.Notification) {
		if !once.CompareAndSwap(false, true) {
			return
		}
		defer close(read)
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		logged = 0
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if rec, err := decodeWALLine(line); err == nil && rec.item != nil {
				logged = max(logged, rec.seq)
			}
		}
	}))

	e.ConsumeBatch(items[30:90]) // the tick fires before document 60 (seq 61)
	e.Flush()
	if msg := gateErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if n := cf.writes.Load(); n < 2 {
		t.Fatalf("%d WAL writes, want the mid-batch commit and the final one", n)
	}
	if logged != 60 {
		t.Fatalf("the sink found documents up to seq %d in the WAL, want exactly the 60 before the tick", logged)
	}
}

// TestCoveredSegmentDamageKeepsTail damages a segment the newest snapshot
// covers: recovery must not read it, so the tail after the snapshot still
// replays in full.
func TestCoveredSegmentDamageKeepsTail(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()
	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items[:600])
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a.ConsumeBatch(items[600:1200])
	a.Close()

	seg := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] = 0x01 // a raw control byte is malformed anywhere in a line
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("damage segment: %v", err)
	}
	damaged := false
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) > 0 {
			if _, err := decodeWALLine(line); err != nil {
				damaged = true
			}
		}
	}
	if !damaged {
		t.Fatal("the damage left every line decodable; the case would test nothing")
	}

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if got := b.DocsProcessed(); got != 1200 {
		t.Fatalf("recovered %d docs, want 1200", got)
	}
	if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
		t.Fatalf("recovery not clean: ok=%v lastErr=%q", ok, st.LastErr)
	}
	mustEqualState(t, reference(items, 1200, 2), b)
}

// TestInvalidUTF8TagsSurviveReplay recovers from the WAL alone a stream
// whose tags carry invalid UTF-8: the replayed engine must hold the same
// tag bytes as the live one, not replacement characters.
func TestInvalidUTF8TagsSurviveReplay(t *testing.T) {
	items := testItems(t)
	for i, it := range items {
		if i%2 == 0 {
			continue
		}
		it.Tags = append([]string(nil), it.Tags...)
		for j := range it.Tags {
			it.Tags[j] += "\xff"
		}
	}
	dir := t.TempDir()
	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items)
	// Crash: abandon a without Close.

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if st, ok := b.DurabilityStats(); !ok || st.LastErr != "" {
		t.Fatalf("recovery not clean: ok=%v lastErr=%q", ok, st.LastErr)
	}
	ref := reference(items, len(items), 2)
	defer ref.Close()
	if !strings.Contains(string(stateBytes(ref)), "\xff") {
		t.Fatal("no invalid UTF-8 tag reached the engine state; the case would test nothing")
	}
	mustEqualState(t, ref, b)
}
