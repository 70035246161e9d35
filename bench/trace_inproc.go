package main

import (
	"runtime"
	"time"

	"enblogue"
	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// traceChunks is the least number of measured chunks of a traced run: two
// split and two plain ones to read the tracing overhead from, then as many
// as hold the traced engine's last two passes, which go to the per-document
// and queued ingest paths. (That is also more than the hashPasses the
// comparable digest needs.)
func traceChunks(per int) int { return 4 + (2+per-1)/per }

// tracedFeed is the traced engine's producer. On its traced passes, batches
// are cut exactly at the tick boundaries the harness computes from document
// times, so a span around ConsumeBatch is either pure per-document work
// (core.consume) or one document plus the tick(s) it fires (core.tick) —
// without changing an engine option. plain(p) passes go through the
// untraced producer instead, with no span at all: the same engine fed both
// ways, turn and turn about, is what the tracing overhead is read from (two
// engines in one process differ by more than tracing costs, depending on
// where their slabs landed). The last pass but one goes through
// per-document Consume, and the last through Enqueue and Flush.
func (x *execution) tracedFeed(tr *tracer, root int32, lastPass *int, plain func(p int) bool) func([]*stream.Item) {
	var segs []segment
	return func(items []*stream.Item) {
		p := x.nextPass - 1
		if p < *lastPass-1 && plain(p) {
			x.consumeBatches(items)
			return
		}
		pass := tr.begin("pass", root)
		defer func() { tr.end(pass, int64(len(items))) }()
		if p == *lastPass {
			x.mark(items, int64(time.Since(x.t0)))
			id := tr.begin("ingest.enqueue", pass)
			for _, it := range items {
				x.eng.Enqueue(it)
			}
			x.flush()
			tr.end(id, int64(len(items)))
			return
		}
		tickName := "core.tick"
		if p == *lastPass-1 {
			tickName = "core.tick1" // kept apart: only split passes enter core.tick_share
		}
		clock := x.clock
		segs = splitAtTicks(items, &clock, batchDocs, segs[:0])
		for _, sg := range segs {
			batch := items[sg.Lo:sg.Hi]
			x.mark(batch, int64(time.Since(x.t0)))
			switch {
			case sg.Tick:
				id := tr.begin(tickName, pass)
				x.eng.ConsumeBatch(batch)
				tr.end(id, 1)
			case p == *lastPass-1:
				id := tr.begin("core.consume1", pass)
				for _, it := range batch {
					x.eng.Consume(it)
				}
				tr.end(id, int64(len(batch)))
			default:
				id := tr.begin("core.consume", pass)
				x.eng.ConsumeBatch(batch)
				tr.end(id, int64(len(batch)))
			}
			x.drain()
		}
	}
}

// setupPasses is how many passes an execution feeds before its measured
// region.
func (w *workload) setupPasses() int {
	n := w.Warm
	if w.Subs > 0 {
		n += 2
	}
	if w.Durable {
		n++
	}
	return n
}

// step replays n passes with the execution's flush points.
func (r *replay) step(w *workload, n int) {
	for i := 0; i < n; i++ {
		r.pass()
		if w.FlushEachPass {
			r.flush()
		}
	}
}

// perUnit is total span time over total span count for one span name.
func perUnit(t map[string]layerTotal, name string) float64 {
	if t[name].Count == 0 {
		return 0
	}
	return float64(t[name].Total) / float64(t[name].Count)
}

// perSpan is total span time over the number of spans for one span name.
func perSpan(t map[string]layerTotal, name string) float64 {
	if t[name].Spans == 0 {
		return 0
	}
	return float64(t[name].Total) / float64(t[name].Spans)
}

// replayLayers reports what the replay's spans and counters say about the
// layers beneath the engine.
func replayLayers(res *result, rp *replay, rt map[string]layerTotal) {
	res.layer("tagstats.observe_ns_per_doc", perUnit(rt, "tagstats.observe"))
	res.layer("pairs.observe_ns_per_doc", perUnit(rt, "pairs.observe"))
	res.layer("intern.intern_ns_per_tag", perUnit(rt, "intern.intern"))
	res.layer("intern.table_len", float64(rp.table.Len()))
	res.layer("tagstats.top_us_per_tick", perSpan(rt, "tagstats.top")/1e3)
	res.layer("tagstats.active_tags", float64(rp.tags.ActiveTags()))
	res.layer("pairs.snapshot_us_per_tick", perSpan(rt, "pairs.snapshot")/1e3)
	res.layer("pairs.promote_us_per_tick", perSpan(rt, "pairs.promote")/1e3)
	res.layer("pairs.tracked_pairs", float64(rp.trk.ActivePairs()))
	res.layer("shift.evaluate_us_per_tick", perSpan(rt, "shift.evaluate")/1e3)
	res.layer("shift.active_states", float64(rp.det.ActiveStates()))
	if rp.tracedDocs > 0 {
		res.layer("pairs.pairs_per_doc", float64(rp.candidates)/float64(rp.tracedDocs))
	}
	if rp.ticks > 0 {
		res.layer("pairs.shard_skew", float64(rp.snapMax)/(float64(rp.snapSum)/float64(rp.cfg.Shards)))
		res.layer("shift.evaluate_ns_per_pair", float64(rp.evalNs)/float64(rp.evaluated))
		res.layer("shift.pruned_share", float64(rp.pruned)/float64(rp.evaluated))
		res.layer("shift.sweep_us_per_tick", float64(rp.sweepNs)/float64(rp.ticks)/1e3)
	}
}

// traceInproc is the traced run of an in-process workload. Four executions
// see the same stream: the untraced reference (timing baseline and hash),
// the traced engine (spans around boundary-split batches), a single-shard
// single-processor engine (the serial baseline), and the replay (spans
// around every layer call). All of them must publish the same rankings.
// After their warm-ups the four take turns chunk by chunk, so what one is
// compared against another for was measured under the same machine
// conditions, seconds apart, not minutes.
func traceInproc(w *workload, o options) (*result, error) {
	res := newResult(w, o)
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]() // engines close before their directories go
		}
	}()
	// start builds and warms up one execution on its own generator and
	// data directory.
	start := func(keep *[]core.Ranking, tr *tracer, extra ...enblogue.Option) (*execution, error) {
		dir, cleanup, err := dataDir(w)
		if err != nil {
			return nil, err
		}
		cleanups = append(cleanups, cleanup)
		x := newExecution(w, newGenerator(w.Stream, o.Seed), w.engineConfig(dir, extra...), keep)
		cleanups = append(cleanups, x.close)
		x.tr, x.root = tr, -1
		if _, err := x.warm(x.consumeBatches); err != nil {
			return nil, err
		}
		return x, x.settle()
	}

	var kept []core.Ranking
	began := time.Now()
	x0, err := start(&kept, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(1 << 16)
	x1, err := start(nil, tr)
	if err != nil {
		return nil, err
	}
	// The serial baseline is skipped on the durable workload, whose engine
	// is ingest-wide's with a WAL beside it: three more recoveries would
	// buy a number ingest-wide already reports.
	var x2 *execution
	if !w.Durable {
		if x2, err = start(nil, nil, enblogue.WithShards(1)); err != nil {
			return nil, err
		}
	}
	cfg := x0.eng.Config()
	rtr := newTracer(1 << 18)
	rp := newReplay(newGenerator(w.Stream, o.Seed), cfg)
	rp.step(w, w.setupPasses())
	rp.flush()
	rp.tr = rtr

	per := max(1, w.SnapshotEvery)
	chunks := traceChunks(per)
	if o.Smoke {
		chunks = o.minChunks()
	}
	firstPass, keptFrom, evicted0 := x0.nextPass, len(kept), evicted(x0.eng)
	root := tr.begin("run", -1)
	x1.root = root
	lastPass := firstPass + chunks*per - 1
	// The traced engine's chunks alternate: even ones split and spanned,
	// odd ones fed like the reference.
	plain := func(p int) bool { return (p-firstPass)/per%2 == 1 }
	traced := x1.tracedFeed(tr, root, &lastPass, plain)
	r0, r1 := x0.beginRegion(), x1.beginRegion()
	var r2 region
	if x2 != nil {
		r2 = x2.beginRegion()
	}
	for c := 0; c < chunks; c++ {
		c0 := time.Now()
		if err := x0.chunk(&r0, x0.consumeBatches); err != nil {
			return nil, err
		}
		if err := x1.chunk(&r1, traced); err != nil {
			return nil, err
		}
		if x2 != nil && c%4 == 0 {
			// One shard, one processor, a quarter of the region.
			procs := runtime.GOMAXPROCS(1)
			err := x2.chunk(&r2, x2.consumeBatches)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				return nil, err
			}
		}
		rp.step(w, per)
		if c == 0 && !o.Smoke {
			// The region is sized once its first round of turns has been
			// timed: as many more as fit into what the warm-ups left of
			// --seconds. The traced producer only needs to know the last
			// pass two passes ahead.
			left := o.Seconds - time.Since(began).Seconds()
			chunks = max(chunks, 1+int(left/time.Since(c0).Seconds()))
			lastPass = firstPass + chunks*per - 1
		}
	}
	if err := x0.endRegion(&r0); err != nil {
		return nil, err
	}
	if err := x1.endRegion(&r1); err != nil {
		return nil, err
	}
	if x2 != nil {
		if err := x2.endRegion(&r2); err != nil {
			return nil, err
		}
	}
	tr.end(root, r1.Docs)
	rp.flush()
	rp.tr = nil
	measured := chunks * per

	// Output checks: every execution consumed everything and published the
	// reference's rankings.
	want := x0.log.hash(time.Time{})
	res.Info["hash"] = x0.log.hash(x0.hashUntil(firstPass))
	res.Info["chunks"] = chunks
	engines := []*execution{x0, x1}
	if x2 != nil {
		engines = append(engines, x2)
	}
	for _, x := range engines {
		res.Attempted += x.docs
		if got := x.eng.DocsProcessed(); got != x.docs {
			res.fail(x.docs-got, "an engine processed %d of %d documents", got, x.docs)
		}
	}
	res.Attempted += rp.docs
	if x1.log.hash(time.Time{}) != want {
		res.fail(1, "boundary-split engine published different rankings than the untraced one")
	}
	if rp.log.hash(time.Time{}) != want {
		res.fail(1, "replay of the layers published different rankings than the engine")
	}
	// The serial engine stopped early with a Flush tick of its own; its
	// rankings before that must be the reference's, up to rounding.
	// Under eviction even that is off: every shard owns its own sketch
	// tier, so what gets promoted back depends on the shard count.
	if x2 != nil {
		wrong, rounding := x2.log.compare(&x0.log, x2.lastDoc, 1e-9)
		if wrong > 0 && !w.Evicts {
			res.fail(int64(wrong), "single-shard engine published %d rankings that differ from the sharded one's", wrong)
		}
		res.Info["serial_rounding_diffs"] = rounding
		res.Info["serial_differing_rankings"] = wrong
		res.layer("core.speedup_vs_serial", median(r0.rates())/median(r2.rates()))
	}
	regionWall := time.Duration(0)
	for _, c := range r0.Chunks {
		regionWall += time.Duration(c.Ns)
	}

	// The layer bill.
	et, rt := totals(tr.spans), totals(rtr.spans)
	docsPerPass := float64(r0.Docs) / float64(measured)
	ticksPerPass := float64(rp.ticks) / float64(measured)

	consume := perUnit(et, "core.consume")
	var tickUs []float64
	tickSum := 0.0
	for _, d := range durations(tr.spans, "core.tick") {
		d -= consume // the boundary-crossing document itself
		tickUs = append(tickUs, d/1e3)
		tickSum += d
	}
	tickUs = sortedCopy(tickUs)
	// Typical ticks are compared by their medians: a single tick that ran
	// into a collection would otherwise be charged to whichever side had it.
	engineTick := percentile(tickUs, 50) * 1e3
	replayTick := median(durations(rtr.spans, "core.tick"))
	// The traced engine's chunks by how they were fed; those holding its
	// last two passes are neither.
	var splitRates, plainRates []float64
	splitWall := 0.0
	for c, st := range r1.Chunks[:chunks-(2+per-1)/per] {
		if plain(firstPass + c*per) {
			plainRates = append(plainRates, st.rate())
		} else {
			splitRates = append(splitRates, st.rate())
			splitWall += st.Ns
		}
	}
	res.layer("core.consume_ns_per_doc", consume)
	res.layer("core.consume1_ns_per_doc", perUnit(et, "core.consume1"))
	res.layer("core.tick_p50_us", percentile(tickUs, 50))
	res.layer("core.tick_p99_us", percentile(tickUs, 99))
	res.layer("core.tick_share", tickSum/splitWall)
	res.layer("ingest.enqueue_ns_per_doc", perUnit(et, "ingest.enqueue"))
	res.layer("ingest.dropped", float64(x1.eng.IngestDropped()))
	res.layer("core.notify_p95_ms", percentile(sortedCopy(x0.latencies(r0.FirstTick, len(x0.submit))), 95))
	res.layer("core.allocs_per_doc", float64(r0.Mallocs)/float64(r0.Docs))
	res.layer("core.gc_pause_ms", float64(r0.GCPauseNs)/1e6)
	res.layer("bench.trace_overhead_share", 1-median(splitRates)/median(plainRates))

	tagObs, pairObs := perUnit(rt, "tagstats.observe"), perUnit(rt, "pairs.observe")
	replayLayers(res, rp, rt)
	res.layer("pairs.evicted_per_kdoc", float64(evicted(x0.eng)-evicted0)/float64(r0.Docs)*1000)

	res.layer("core.consume_residual_ns_per_doc", consume-tagObs-pairObs)
	res.layer("core.tick_residual_us", (engineTick-replayTick)/1e3)
	if engine := consume*docsPerPass + engineTick*ticksPerPass; engine > 0 {
		res.layer("bench.trace_coverage", ((tagObs+pairObs)*docsPerPass+replayTick*ticksPerPass)/engine)
	}

	res.layer("window.slots", float64(rp.trk.ActivePairs()))
	res.layer("window.inc_ns", windowIncNs(rp))
	if cfg.TailSketch.Enabled {
		tierLayers(res, rp, cfg, x0.eng.TailStats())
	}
	// The replay's generator has drawn no subscribers yet, so it yields the
	// very population the executions subscribed.
	dispatchLayers(res, w, cfg, rp.gen, kept[keptFrom:], regionWall)
	if w.Durable {
		if err := persistLayers(res, w, rp.gen, et, x1); err != nil {
			return nil, err
		}
	}
	res.layer("bench.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.fillLayers()

	res.Info["measured_passes"] = measured
	res.Info["shards"] = cfg.Shards
	res.Info["layer_totals"] = map[string]any{"engine": et, "replay": rt}
	if err := writeTrace(traceDir, traceFile{
		Workload: w.Name, Seed: o.Seed,
		Trees: map[string][]span{"engine": tr.spans, "replay": rtr.spans},
	}); err != nil {
		return nil, err
	}
	return res, nil
}
