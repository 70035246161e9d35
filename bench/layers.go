package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
	"enblogue/internal/persist"
	"enblogue/internal/sketch"
	"enblogue/internal/tier"
	"enblogue/internal/window"
)

// This file times the layers a traced run cannot reach through the replay:
// calls into a layer's public functions on private instances, fed with
// inputs captured from the workload's own stream.

// windowIncNs times CounterArena.IncAbs over a slot population equal to
// the tracked pairs, in the order the stream's next pass increments them.
func windowIncNs(rp *replay) float64 {
	cfg := rp.cfg
	arena := window.NewCounterArena(cfg.WindowBuckets, cfg.WindowResolution)
	nslots := max(rp.trk.ActivePairs(), 1)
	for i := 0; i < nslots; i++ {
		arena.Alloc()
	}
	type inc struct {
		slot int32
		abs  int64
	}
	slotOf := make(map[pairs.Key]int32)
	var incs []inc
	isSeed := rp.seeds.Func()
	items, _ := rp.gen.pass(rp.nextPass)
	for _, it := range items {
		abs := arena.BucketIndex(it.Time)
		for a := 0; a < len(it.Tags); a++ {
			for b := a + 1; b < len(it.Tags); b++ {
				if !isSeed(it.Tags[a]) && !isSeed(it.Tags[b]) {
					continue
				}
				k := pairs.MakeKey(it.Tags[a], it.Tags[b])
				slot, ok := slotOf[k]
				if !ok {
					slot = int32(len(slotOf) % nslots)
					slotOf[k] = slot
				}
				incs = append(incs, inc{slot, abs})
			}
		}
	}
	if len(incs) == 0 {
		return 0
	}
	start := time.Now()
	for _, in := range incs {
		arena.IncAbs(in.slot, in.abs)
	}
	return float64(time.Since(start)) / float64(len(incs))
}

// tierLayers times the cold tier on the eviction victims the replay's
// tracker captured through SetOnEvict.
func tierLayers(res *result, rp *replay, cfg core.Config, tail core.TailStats) {
	res.layer("tier.promotions", float64(tail.Promotions))
	res.layer("tier.tail_pairs", float64(tail.TailPairs))
	if rp.recallN > 0 {
		res.layer("tier.recall_at_20", rp.recallSum/float64(rp.recallN))
	}
	if len(rp.victims) == 0 {
		return
	}
	ts := cfg.TailSketch
	tl := tier.New(tier.Config{
		Epsilon: ts.Epsilon, Delta: ts.Delta, TopK: ts.TopK,
		Span: int64(cfg.WindowBuckets) * int64(cfg.WindowResolution),
	})
	now := rp.lastDoc.UnixNano()
	start := time.Now()
	for _, v := range rp.victims {
		tl.Demote(now, v.key, v.count)
	}
	res.layer("tier.demote_ns", float64(time.Since(start))/float64(len(rp.victims)))

	const rounds = 200
	var buf []tier.Candidate
	start = time.Now()
	for i := 0; i < rounds; i++ {
		buf = tl.AppendCandidates(now, 0, buf[:0])
	}
	res.layer("tier.candidates_us_per_tick", float64(time.Since(start))/rounds/1e3)

	cm := sketch.NewWindowedCountMinWithError(ts.Epsilon, ts.Delta)
	start = time.Now()
	for _, v := range rp.victims {
		cm.AddU64(v.key, v.count)
	}
	res.layer("sketch.addu64_ns", float64(time.Since(start))/float64(len(rp.victims)))
}

// dispatchLayers replays the reference execution's recorded rankings into
// the workload's subscriber population through Engine.PublishRanking, which
// publishes and waits for the dispatcher: the cost of dispatch alone, with
// no ingest or tick beside it.
func dispatchLayers(res *result, w *workload, cfg core.Config, gen *generator, rankings []core.Ranking, regionWall time.Duration) {
	if len(rankings) == 0 {
		return
	}
	cfg.Durability = core.DurabilityConfig{}
	e := core.New(cfg)
	defer e.Close()
	x := &execution{account: newAccount(gen), w: w, eng: e}
	full := e.Subscribe(context.Background(), core.SubBuffer(4))
	start := time.Now()
	x.subscribe()
	if w.Subs > 0 {
		res.layer("core.subscribe_us", float64(time.Since(start))/float64(w.Subs)/1e3)
	}
	var busy time.Duration
	var matched int64
	for _, r := range rankings {
		t0 := time.Now()
		e.PublishRanking(r)
		busy += time.Since(t0)
		matched += e.MatchedLastTick()
		x.drain()
		for len(full.Notifications()) > 0 {
			<-full.Notifications()
		}
	}
	n := float64(len(rankings))
	res.layer("core.dispatch_us_per_tick", float64(busy)/n/1e3)
	if matched > 0 {
		res.layer("core.dispatch_ns_per_notif", float64(busy)/float64(matched))
	}
	res.layer("core.matched_share", float64(matched)/n/float64(w.Subs+1))
	res.layer("core.notifs_dropped", float64(e.RankingsDropped()))
	res.layer("core.dispatch_share", float64(busy)/float64(regionWall))
}

// persistLayers times the durability layer: the WAL append alone, the
// snapshot the traced engine took, and recovery from a snapshot-only and a
// WAL-only directory.
func persistLayers(res *result, w *workload, gen *generator, engine map[string]layerTotal, x1 *execution) error {
	res.layer("persist.snapshot_ms", perSpan(engine, "persist.snapshot")/1e6)
	res.layer("persist.recover_s", perSpan(engine, "persist.recover")/1e9)
	if mb, err := newestSnapshotMB(x1.cfg.Durability.Dir); err == nil {
		res.layer("persist.snapshot_mb", mb)
	}

	// Snapshot-only: the traced engine's last act was a snapshot (which
	// rotated the WAL), so its directory recovers from the snapshot alone.
	cfg := x1.cfg
	x1.close()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	restored := core.New(cfg)
	res.layer("persist.restore_ms", float64(time.Since(start))/1e6)
	runtime.ReadMemStats(&ms1)
	res.layer("persist.restore_allocs", float64(ms1.Mallocs-ms0.Mallocs))
	ok := restored.DocsProcessed() == x1.docs
	restored.Close()
	if !ok {
		res.fail(1, "snapshot-only recovery restored %d documents, want %d", restored.DocsProcessed(), x1.docs)
	}

	// WAL append alone: a second Store attached to a fresh engine's
	// directory, fed one pass of documents directly.
	dir, cleanup, err := dataDir(w)
	if err != nil {
		return err
	}
	defer cleanup()
	idle := core.New(w.engineConfig(dir))
	wal, dur, err := persist.Attach(idle)
	if err != nil {
		idle.Close()
		return fmt.Errorf("attaching WAL: %w", err)
	}
	items, _ := gen.pass(0)
	start = time.Now()
	for i, it := range items {
		wal.RecordDoc(int64(i+1), it)
	}
	res.layer("persist.wal_ns_per_doc", float64(time.Since(start))/float64(len(items)))
	res.layer("persist.wal_bytes_per_doc", float64(dur.Stats().WALBytes)/float64(len(items)))
	if err := dur.Close(); err != nil {
		idle.Close()
		return fmt.Errorf("closing WAL: %w", err)
	}
	idle.Close()

	// WAL-only: an engine that consumed one pass and never snapshotted.
	dir2, cleanup2, err := dataDir(w)
	if err != nil {
		return err
	}
	defer cleanup2()
	cfg2 := w.engineConfig(dir2)
	logged := core.New(cfg2)
	for i := 0; i < len(items); i += batchDocs {
		logged.ConsumeBatch(items[i:min(i+batchDocs, len(items))])
	}
	logged.Close()
	start = time.Now()
	replayed := core.New(cfg2)
	took := time.Since(start)
	if got := replayed.DocsProcessed(); got != int64(len(items)) {
		res.fail(1, "WAL-only recovery replayed %d documents, want %d", got, len(items))
	}
	replayed.Close()
	res.layer("persist.replay_docs_per_s", float64(len(items))/took.Seconds())
	return nil
}

// newestSnapshotMB returns the size of dir's newest snapshot file.
func newestSnapshotMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	newest := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		return 0, fmt.Errorf("no snapshot in %s", dir)
	}
	info, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		return 0, err
	}
	return float64(info.Size()) / (1 << 20), nil
}
