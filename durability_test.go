package enblogue_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"enblogue"
	"enblogue/internal/stream"
)

// Durability acceptance: an engine that crashes and recovers from its data
// directory (newest snapshot + WAL replay) publishes rankings tick-for-tick
// bit-identical to an engine that never crashed — across both acceptance
// workloads, shard counts, and crash positions that land mid-window, on a
// tick boundary, and inside a consume batch.

// durableOpts builds the standard test durability options: explicit
// snapshots only (no wall-clock ticker — determinism) and no fsync (the
// simulated crash is a process abandon; page-cache writes survive it).
func durableOpts(dir string) enblogue.Option {
	return enblogue.WithDurability(dir,
		enblogue.SnapshotEvery(-1),
		enblogue.Fsync(enblogue.FsyncNeverMode),
	)
}

// crashPoints returns the matrix of crash positions for a workload:
// mid-window (between ticks), tick-boundary (immediately after the first
// item past an hour boundary in the stream's second half), and mid-batch
// (a position that is not a multiple of the feeding batch size).
func crashPoints(items []*stream.Item) map[string]int {
	tickBoundary := len(items) * 2 / 3 // fallback if no boundary found
	for i := len(items) / 2; i < len(items)-1; i++ {
		if !items[i].Time.Truncate(time.Hour).Equal(items[i-1].Time.Truncate(time.Hour)) {
			tickBoundary = i + 1 // crash right after the tick-crossing item
			break
		}
	}
	midBatch := len(items)/2 - len(items)/2%64 + 37 // not a multiple of 64
	return map[string]int{
		"mid-window":    len(items) / 2,
		"tick-boundary": tickBoundary,
		"mid-batch":     midBatch,
	}
}

// forcedTicks are the crash cells whose engine takes a forced tick after
// its snapshot and before the crash, through Flush or through Tick. A
// forced tick changes detector state, so recovery matches only if the WAL
// logged it at its stream position.
var forcedTicks = map[string]func(t *testing.T, e *enblogue.Engine){
	"after-flush": func(t *testing.T, e *enblogue.Engine) {
		e.Flush()
		if at := e.LastEventTime(); !e.CurrentRanking().At.Equal(at) {
			t.Fatalf("Flush ran no tick at %v; the cell would test nothing", at)
		}
	},
	"after-tick": func(t *testing.T, e *enblogue.Engine) {
		at := e.LastEventTime()
		if r := e.Tick(at); !r.At.Equal(at) {
			t.Fatalf("Tick(%v) was refused; the cell would test nothing", at)
		}
	},
}

// feedBatches consumes items[lo:hi] in 64-doc batches.
func feedBatches(e *enblogue.Engine, items []*stream.Item, lo, hi int) {
	for ; lo < hi; lo += 64 {
		e.ConsumeBatch(items[lo:min(lo+64, hi)])
	}
}

// crashAndRecover simulates the crash protocol on one workload cell: a
// durable engine consumes items[:crash] in 64-doc batches with a forced
// snapshot partway, then is abandoned mid-flight (no Close — the crash). A
// non-nil force runs between the snapshot and the crash, at forcedAt. A
// second engine on the same directory recovers and finishes the stream;
// its recorded rankings are returned. opts are applied to both engines.
func crashAndRecover(t *testing.T, items []*stream.Item, dir string, shards, crash int,
	force func(*testing.T, *enblogue.Engine), opts ...enblogue.Option) []enblogue.Ranking {
	t.Helper()
	opts = append([]enblogue.Option{enblogue.WithShards(shards), durableOpts(dir)}, opts...)
	a := enblogue.New(opts...)
	snapAt := crash / 2
	feedBatches(a, items, 0, snapAt)
	if err := a.Snapshot(); err != nil {
		t.Fatalf("forced snapshot at %d: %v", snapAt, err)
	}
	if force != nil {
		at := forcedAt(crash)
		feedBatches(a, items, snapAt, at)
		force(t, a)
		snapAt = at
	}
	feedBatches(a, items, snapAt, crash)
	// Crash: abandon a without Flush or Close.

	b := enblogue.New(opts...)
	rec := record(b)
	feedBatches(b, items, crash, len(items))
	b.Flush()
	b.Close()
	return rec.wait()
}

// forcedAt is where a forced-tick cell crashing at crash takes its tick:
// halfway between the snapshot (crash/2) and the crash.
func forcedAt(crash int) int { return crash * 3 / 4 }

// consumeForced is consumeSerial with force applied after items[:at].
func consumeForced(t *testing.T, items []*stream.Item, shards, at int,
	force func(*testing.T, *enblogue.Engine), opts ...enblogue.Option) []enblogue.Ranking {
	e := enblogue.New(append([]enblogue.Option{enblogue.WithShards(shards)}, opts...)...)
	rec := record(e)
	for _, it := range items[:at] {
		e.Consume(it)
	}
	force(t, e)
	for _, it := range items[at:] {
		e.Consume(it)
	}
	e.Flush()
	e.Close()
	return rec.wait()
}

// TestRecoveredEngineBitIdentical is the headline durability proof: for
// every workload × shard count × crash point, in the default mode and in
// distribution mode (subtests suffixed "-dist"), the recovered engine's
// post-crash rankings equal — reflect.DeepEqual, scores included — the
// corresponding suffix of the rankings a never-crashed serial engine
// publishes over the full stream. The crash-after-flush and
// crash-after-tick cells take a forced tick between the snapshot and the
// crash, and their reference takes the same tick at the same position.
func TestRecoveredEngineBitIdentical(t *testing.T) {
	modes := []struct {
		suffix string
		opts   []enblogue.Option
	}{
		{"", nil},
		{"-dist", []enblogue.Option{enblogue.WithDistributionMode()}},
	}
	check := func(t *testing.T, want, got []enblogue.Ranking) {
		t.Helper()
		if len(got) == 0 {
			t.Fatal("recovered engine published no rankings after the crash")
		}
		if len(got) > len(want) {
			t.Fatalf("recovered engine published %d rankings, more than the %d-tick reference", len(got), len(want))
		}
		// Ticks fired before the crash (and during the replay inside New,
		// before any subscriber exists) are not recorded; everything after
		// must match the reference suffix exactly, timestamps and scores
		// included.
		diffRankings(t, want[len(want)-len(got):], got)
	}
	for name, items := range equivWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			for _, mode := range modes {
				for _, shards := range []int{1, 8} {
					want := consumeSerial(items, shards, mode.opts...)
					if len(want) == 0 {
						t.Fatalf("reference replay of %q published no rankings", name)
					}
					for cpName, crash := range crashPoints(items) {
						t.Run(fmt.Sprintf("shards-%d%s/crash-%s", shards, mode.suffix, cpName), func(t *testing.T) {
							check(t, want, crashAndRecover(t, items, t.TempDir(), shards, crash, nil, mode.opts...))
						})
					}
					crash := len(items) / 2
					for fName, force := range forcedTicks {
						t.Run(fmt.Sprintf("shards-%d%s/crash-%s", shards, mode.suffix, fName), func(t *testing.T) {
							want := consumeForced(t, items, shards, forcedAt(crash), force, mode.opts...)
							check(t, want, crashAndRecover(t, items, t.TempDir(), shards, crash, force, mode.opts...))
						})
					}
				}
			}
		})
	}
}

// TestHubRecoveryWithNoiseTenant runs the crash protocol through a Hub:
// the observed tenant crashes and recovers under its own subdirectory
// while a second tenant ingests a different stream concurrently the whole
// time. Tenant isolation must hold through the data directory too — the
// recovered rankings stay bit-identical to the single-engine reference.
func TestHubRecoveryWithNoiseTenant(t *testing.T) {
	workloads := equivWorkloads(t)
	items, noise := workloads["tweets"], workloads["archive"]
	crash := len(items) / 2
	want := consumeSerial(items, 4)
	root := t.TempDir()

	newHub := func() *enblogue.Hub {
		return enblogue.NewHub(enblogue.HubDefaults(
			enblogue.WithShards(4),
			durableOpts(root),
		))
	}
	open := func(h *enblogue.Hub, name string) *enblogue.Engine {
		e, err := h.Open(name)
		if err != nil {
			t.Fatalf("open tenant %q: %v", name, err)
		}
		return e
	}
	startNoise := func(h *enblogue.Hub, lo, hi int) chan struct{} {
		e := open(h, "noise")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := lo; i < hi; i++ {
				e.Consume(noise[i])
			}
		}()
		return done
	}

	h1 := newHub()
	noiseDone := startNoise(h1, 0, len(noise)/2)
	main := open(h1, "main")
	main.ConsumeBatch(items[:crash/2])
	if err := main.Snapshot(); err != nil {
		t.Fatalf("snapshot main tenant: %v", err)
	}
	main.ConsumeBatch(items[crash/2 : crash])
	<-noiseDone
	// Crash the whole process: abandon the hub without Close.

	h2 := newHub()
	noiseDone = startNoise(h2, len(noise)/2, len(noise))
	recovered := open(h2, "main")
	rec := record(recovered)
	recovered.ConsumeBatch(items[crash:])
	recovered.Flush()
	<-noiseDone
	noiseEngine := open(h2, "noise")
	if n := noiseEngine.DocsProcessed(); n < int64(len(noise)/2) {
		t.Errorf("noise tenant recovered only %d docs, want at least the pre-crash half (%d)", n, len(noise)/2)
	}
	h2.Close()
	got := rec.wait()
	if len(got) == 0 {
		t.Fatal("recovered tenant published no rankings after the crash")
	}
	diffRankings(t, want[len(want)-len(got):], got)

	// The tenants kept separate subdirectories.
	for _, name := range []string{"main", "noise"} {
		if m, _ := filepath.Glob(filepath.Join(root, name, "wal-*.jsonl")); len(m) == 0 {
			t.Errorf("tenant %q left no WAL segments under its subdirectory", name)
		}
	}
}
