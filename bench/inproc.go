package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// account is the harness's side of one stream fed to one system under
// test: it mirrors the engine's tick schedule from document times, so it
// knows how many rankings must come out and when each tick's batch went in,
// and it holds the log of what actually was published.
type account struct {
	gen *generator
	t0  time.Time
	log tickLog

	clock    tickClock
	lastTick time.Time // newest evaluation time the engine has run
	lastDoc  time.Time
	expect   int64 // rankings that must have been published so far
	// submit[k] is when (nanos since t0) the batch whose document fires
	// grid tick k was handed over — or, in an open loop, was due; grid tick
	// k evaluates at streamStart + k·TickEvery.
	submit []int64

	nextPass   int
	docs       int64
	happenings []happening
}

func newAccount(gen *generator) account {
	return account{gen: gen, t0: time.Now(), clock: tickClock{Every: gen.spec.TickEvery}}
}

// mark advances the mirrored tick clock over a batch handed over (or due)
// at now, nanos since t0.
func (a *account) mark(batch []*stream.Item, now int64) {
	for _, it := range batch {
		if n := a.clock.crossed(it.Time); n > 0 {
			a.expect += int64(n)
			a.lastTick = a.clock.Next.Add(-a.clock.Every)
			k := int(a.lastTick.Sub(streamStart) / a.clock.Every)
			for len(a.submit) <= k {
				a.submit = append(a.submit, 0)
			}
			a.submit[k] = now
		}
	}
	a.lastDoc = batch[len(batch)-1].Time
	a.docs += int64(len(batch))
}

// nextItems materialises the next pass.
func (a *account) nextItems() []*stream.Item {
	items, hs := a.gen.pass(a.nextPass)
	a.nextPass++
	a.happenings = append(a.happenings, hs...)
	return items
}

// execution is one execution of a workload's stream against one in-process
// engine, with the subscriber that logs what the engine publishes.
type execution struct {
	account
	w   *workload
	cfg core.Config
	eng *core.Engine
	rec *recorder

	subs      []*core.Subscription
	subNotifs int64

	// tr, when set, receives spans around the durability calls (snapshot,
	// recovery) under root; the traced producer adds the ingest spans.
	tr   *tracer
	root int32
}

// spanned runs fn inside a span when the execution is traced.
func (x *execution) spanned(name string, fn func()) {
	if x.tr == nil {
		fn()
		return
	}
	id := x.tr.begin(name, x.root)
	fn()
	x.tr.end(id, 1)
}

func newExecution(w *workload, gen *generator, cfg core.Config, keep *[]core.Ranking) *execution {
	x := &execution{account: newAccount(gen), w: w, cfg: cfg}
	x.eng = core.New(cfg)
	x.rec = startRecorder(x.eng, &x.log, x.t0, keep)
	return x
}

// consumeBatches is the untraced producer: ConsumeBatch in batches of up to
// 512 documents that never span a tick boundary — the document that crosses
// one always opens a batch, as the first document of a POST body does on
// the serve workload — draining the predicate subscriptions in between.
// The notify latency of a tick is therefore counted from the hand-over of
// the very document that fires it.
func (x *execution) consumeBatches(items []*stream.Item) {
	clock := x.clock // scans ahead of the one mark advances
	lo := 0
	for i, it := range items {
		if boundary := clock.crossed(it.Time) > 0; i > lo && (boundary || i-lo == batchDocs) {
			x.handOver(items[lo:i])
			lo = i
		}
	}
	x.handOver(items[lo:])
}

func (x *execution) handOver(batch []*stream.Item) {
	x.mark(batch, int64(time.Since(x.t0)))
	x.eng.ConsumeBatch(batch)
	x.drain()
}

// feedPass materialises the next pass and hands it to feed.
func (x *execution) feedPass(feed func([]*stream.Item)) {
	feed(x.nextItems())
	if x.w.FlushEachPass {
		x.flush()
	}
}

// flush runs Engine.Flush — a final tick at the last event time unless one
// already ran there, then a wait for the dispatcher — and accounts for the
// ranking it publishes.
func (x *execution) flush() {
	x.eng.Flush()
	if x.lastDoc.After(x.lastTick) {
		x.lastTick = x.lastDoc
		x.expect++
	}
	x.drain()
}

// settle flushes and waits until the recorder has logged every ranking.
func (x *execution) settle() error {
	x.flush()
	return x.rec.waitFor(x.expect)
}

// subscribe attaches the workload's predicate subscriber population: one
// to three any-of tags each (a fixed share of them from the current
// ranking), a tenth of them also score-floored and emergence-only. Buffers hold a whole pass of notifications, because
// nobody drains while the producer sits in Flush.
func (x *execution) subscribe() {
	buf := core.SubBuffer(2 * x.w.Stream.PassTicks)
	for i := 0; i < x.w.Subs; i++ {
		opts := []core.SubOption{core.SubTags(x.gen.subscriberTags()...), buf}
		if i%10 == 9 {
			opts = append(opts, core.SubMinScore(0.001), core.SubEmergenceOnly())
		}
		x.subs = append(x.subs, x.eng.Subscribe(context.Background(), opts...))
	}
}

// drain empties every predicate subscription without blocking.
func (x *execution) drain() {
	for _, s := range x.subs {
		ch := s.Notifications()
		for {
			select {
			case <-ch:
				x.subNotifs++
				continue
			default:
			}
			break
		}
	}
}

// close shuts the engine (and with it every subscription) down.
func (x *execution) close() {
	x.eng.Close()
	<-x.rec.done
}

// warm runs the set-up half of an execution: the warm-up passes, the
// subscriber population, and — for the durable workload — a snapshot, a
// WAL tail beyond it, and a restart from disk, so the measured region
// starts on a recovered engine. It returns the recovery time (0 unless
// durable).
func (x *execution) warm(feed func([]*stream.Item)) (recover time.Duration, err error) {
	for i := 0; i < x.w.Warm; i++ {
		x.feedPass(feed)
	}
	if x.w.Subs > 0 {
		x.subscribe()
		// Two more passes so every fresh subscription has had its forced
		// first evaluation and the buffers are in steady state.
		x.feedPass(feed)
		x.feedPass(feed)
	}
	if !x.w.Durable {
		return 0, nil
	}
	if err := x.eng.Snapshot(); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	x.feedPass(feed)
	// No Flush here: the tick it forces is engine state the WAL (which logs
	// documents) cannot replay, so the engine before Close would be one
	// evaluation ahead of the recovered one.
	if err := x.rec.waitFor(x.expect); err != nil {
		return 0, err
	}
	wantDocs, wantRank := x.eng.DocsProcessed(), x.eng.CurrentRanking()
	keep := x.rec.keep
	x.close()
	start := time.Now()
	x.spanned("persist.recover", func() { x.eng = core.New(x.cfg) })
	recover = time.Since(start)
	if st, ok := x.eng.DurabilityStats(); !ok || st.LastErr != "" {
		return recover, fmt.Errorf("recovery degraded: %q", st.LastErr)
	}
	if got := x.eng.DocsProcessed(); got != wantDocs {
		return recover, fmt.Errorf("recovered engine has %d documents, want %d", got, wantDocs)
	}
	if got := x.eng.CurrentRanking(); !sameRanking(got, wantRank) {
		return recover, fmt.Errorf("recovered ranking at %v differs from the one before Close at %v", got.At, wantRank.At)
	}
	x.rec = startRecorder(x.eng, &x.log, x.t0, keep)
	return recover, nil
}

// sameRanking compares two rankings on evaluation time and every topic's
// pair and score bits.
func sameRanking(a, b core.Ranking) bool {
	if !a.At.Equal(b.At) || len(a.Topics) != len(b.Topics) {
		return false
	}
	for i := range a.Topics {
		if a.Topics[i].Pair != b.Topics[i].Pair || a.Topics[i].Score != b.Topics[i].Score {
			return false
		}
	}
	return true
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dataDir returns a fresh durable data directory under the working
// directory (the benchmark never writes outside its checkout) and the
// function that removes it.
func dataDir(w *workload) (string, func(), error) {
	if !w.Durable {
		return "", func() {}, nil
	}
	root := ".bench_build/tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, fmt.Errorf("data dir: %w", err)
	}
	dir, err := os.MkdirTemp(root, w.Name+"-")
	if err != nil {
		return "", nil, fmt.Errorf("data dir: %w", err)
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// chunkStat is one timed chunk of a measured region: a fixed amount of
// work (one pass; two passes and a snapshot on the durable workload).
type chunkStat struct {
	Ns    float64 // wall time
	Docs  int64
	CPUNs int64 // process user+sys CPU
	// Grid ticks [FirstTick, EndTick) fired during the chunk.
	FirstTick, EndTick int
}

// rate is the chunk's documents per second.
func (c chunkStat) rate() float64 { return float64(c.Docs) / (c.Ns / 1e9) }

// cpu is the chunk's process CPU per document in microseconds.
func (c chunkStat) cpu() float64 { return float64(c.CPUNs) / 1e3 / float64(c.Docs) }

// regionParts is how many consecutive parts a measured region is cut into.
// Every timing of an untraced run is taken over each part as a whole —
// documents ÷ wall time, CPU ÷ documents, the median latency of its ticks —
// and the best part is reported. The shared sandbox runs the same code up to
// a third slower for seconds at a time and never faster, so a run's median
// lands wherever its slow phases put it (identical runs 15–25 % apart); the
// best of eight parts, each long enough to hold whatever the product does
// periodically (collections, sweeps, snapshots), halves that.
const regionParts = 8

// cutParts merges a region's chunks into at most k consecutive parts of
// (nearly) equal chunk counts.
func cutParts(chunks []chunkStat, k int) []chunkStat {
	k = min(k, len(chunks))
	parts := make([]chunkStat, k)
	for i := range parts {
		group := chunks[i*len(chunks)/k : (i+1)*len(chunks)/k]
		p := &parts[i]
		p.FirstTick, p.EndTick = group[0].FirstTick, group[len(group)-1].EndTick
		for _, c := range group {
			p.Ns += c.Ns
			p.Docs += c.Docs
			p.CPUNs += c.CPUNs
		}
	}
	return parts
}

// partLatencies returns each part's median notify latency in milliseconds.
func (x *account) partLatencies(parts []chunkStat) []float64 {
	out := make([]float64, len(parts))
	for i, p := range parts {
		out[i] = percentile(sortedCopy(x.latencies(p.FirstTick, p.EndTick)), 50)
	}
	return out
}

// region is what one measured region produced, before it is turned into
// named metrics.
type region struct {
	Wall      time.Duration // first chunk to the end of the closing Flush
	Chunks    []chunkStat
	Docs      int64
	FirstTick int // grid ordinal of the first tick inside the region
	Notifs    int64
	// Mallocs and GCPauseNs are process-wide deltas summed over the chunks
	// alone, so they stay this execution's own when a traced run interleaves
	// several.
	Mallocs   uint64
	GCPauseNs uint64

	docs0, notifs0 int64
}

// each maps the chunks through one of chunkStat's readings.
func each(chunks []chunkStat, f func(chunkStat) float64) []float64 {
	out := make([]float64, len(chunks))
	for i, c := range chunks {
		out[i] = f(c)
	}
	return out
}

// rates returns each chunk's documents per second.
func (r *region) rates() []float64 { return each(r.Chunks, chunkStat.rate) }

// beginRegion opens the measured region.
func (x *execution) beginRegion() region {
	return region{
		FirstTick: x.nextPass * x.w.Stream.PassTicks,
		docs0:     x.docs,
		notifs0:   int64(x.log.len()) + x.subNotifs,
	}
}

// chunk feeds one chunk — a fixed number of passes, closed by a snapshot on
// the durable workload — and times it.
func (x *execution) chunk(r *region, feed func([]*stream.Item)) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	first := x.nextPass * x.w.Stream.PassTicks
	cpu0, c0, d0 := cpuTime(), time.Now(), x.docs
	for i := 0; i < max(1, x.w.SnapshotEvery); i++ {
		x.feedPass(feed)
	}
	if x.w.Durable {
		var err error
		x.spanned("persist.snapshot", func() { err = x.eng.Snapshot() })
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	ns := float64(time.Since(c0))
	st := chunkStat{
		Ns: ns, Docs: x.docs - d0, CPUNs: int64(cpuTime() - cpu0),
		FirstTick: first, EndTick: x.nextPass * x.w.Stream.PassTicks,
	}
	r.Chunks = append(r.Chunks, st)
	runtime.ReadMemStats(&ms1)
	r.Mallocs += ms1.Mallocs - ms0.Mallocs
	r.GCPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	return nil
}

// endRegion closes the region with a Flush and waits for the recorder.
func (x *execution) endRegion(r *region) error {
	if err := x.settle(); err != nil {
		return err
	}
	r.Docs = x.docs - r.docs0
	r.Notifs = int64(x.log.len()) + x.subNotifs - r.notifs0
	return nil
}

// measure runs a whole measured region: chunks until seconds have elapsed
// and at least minChunks are in, then the closing Flush.
func (x *execution) measure(feed func([]*stream.Item), seconds float64, minChunks int) (region, error) {
	r := x.beginRegion()
	start := time.Now()
	for len(r.Chunks) < minChunks || time.Since(start).Seconds() < seconds {
		if err := x.chunk(&r, feed); err != nil {
			return r, err
		}
	}
	err := x.endRegion(&r)
	r.Wall = time.Since(start)
	return r, err
}

// latencies returns, in milliseconds and tick order, how long each grid
// tick in [first, end) took from the hand-over of the batch that fired it
// (in an open loop: from when that batch was due) to the arrival of its
// ranking at the subscriber.
func (x *account) latencies(first, end int) []float64 {
	var out []float64
	every := int64(x.clock.Every)
	for i, at := range x.log.at {
		off := at - streamStart.UnixNano()
		if off%every != 0 {
			continue // a Flush tick, off the grid: no batch fired it
		}
		k := int(off / every)
		if k < first || k >= end || k >= len(x.submit) || x.submit[k] == 0 {
			continue
		}
		out = append(out, float64(x.log.arrive[i]-x.submit[k])/1e6)
	}
	return out
}

// regionHappenings returns the happenings that started inside the region
// and could have been detected.
func (x *account) regionHappenings(first int) []happening {
	// Only those whose burst interval has been closed by a tick: the open
	// loop stops mid-pass, possibly right after a burst nobody evaluated.
	fired := int(x.lastTick.Sub(streamStart) / x.clock.Every)
	var out []happening
	for _, h := range x.happenings {
		if h.FirstTick > first && h.FirstTick <= fired {
			out = append(out, h)
		}
	}
	return out
}

// hashPasses is how many measured passes the published hash covers beyond
// the warm-up. Untraced runs measure for a fixed time and traced runs for a
// fixed count, so they cover different numbers of passes; every run covers
// at least this many, which makes the digest comparable across all of them.
const hashPasses = 4

// hashUntil is the event time up to which an execution's rankings enter
// the comparable digest.
func (x *account) hashUntil(firstMeasuredPass int) time.Time {
	return streamStart.Add(time.Duration(firstMeasuredPass+hashPasses) * x.gen.spec.passSpan())
}

// setupRuns is how many times an untraced run sets its workload up: set-up
// time is the median over them, and the measured region runs on the last.
// One set-up per run left setup_s with whatever spread the machine had in
// that second.
const setupRuns = 3

// minChunks is the least number of equal chunks a measured region is cut
// into: two for each of its parts.
const minChunks = 2 * regionParts

// inprocSetup is one complete set-up of an in-process workload: inputs
// generated, engine built, warm-up passes fed, subscribers attached and —
// for the durable workload — the engine recovered from disk.
type inprocSetup struct {
	x       *execution
	base    float64 // live heap after input generation, MB
	recover time.Duration
	took    time.Duration
	cleanup func()
}

func setUpInproc(w *workload, seed int64) (*inprocSetup, error) {
	start := time.Now()
	gen := newGenerator(w.Stream, seed)
	dir, cleanup, err := dataDir(w)
	if err != nil {
		return nil, err
	}
	su := &inprocSetup{base: liveHeapMB(), cleanup: cleanup}
	su.x = newExecution(w, gen, w.engineConfig(dir), nil)
	if su.recover, err = su.x.warm(su.x.consumeBatches); err == nil {
		err = su.x.settle()
	}
	if err != nil {
		su.discard()
		return nil, err
	}
	runtime.GC()
	su.took = time.Since(start)
	return su, nil
}

// discard shuts the set-up's engine down and removes its data directory.
func (su *inprocSetup) discard() {
	su.x.close()
	su.cleanup()
}

// runInproc is the untraced run of an in-process workload: set up, measure
// for seconds, check the outputs, and report the end-to-end metrics.
func runInproc(w *workload, o options) (*result, error) {
	res := newResult(w, o)
	var su *inprocSetup
	var setups []float64
	for i := 0; i < o.setupRuns(); i++ {
		if su != nil {
			su.discard()
		}
		var err error
		if su, err = setUpInproc(w, o.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, su.took.Seconds())
	}
	defer su.discard()
	x := su.x
	firstPass := x.nextPass

	r, err := x.measure(x.consumeBatches, o.Seconds, o.minChunks())
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() - su.base

	// Output checks.
	if got := x.eng.DocsProcessed(); got != x.docs {
		res.fail(x.docs-got, "engine processed %d of %d documents", got, x.docs)
	}
	if d := x.eng.RankingsDropped(); d > 0 {
		res.fail(d, "%d notifications dropped", d)
	}
	if got := int64(x.log.len()); got != x.expect {
		res.fail(x.expect-got, "recorder saw %d of %d rankings", got, x.expect)
	}
	det := x.log.detect(x.regionHappenings(r.FirstTick), w.Stream.TickEvery)
	if n := len(det.Missed); n > 0 {
		res.sized(w, int64(n), "%d of %d happenings never reached the top-k: %v", n, det.Attempted, det.Missed)
	}
	res.Attempted = r.Docs + r.Notifs + int64(det.Attempted)
	if ev := evicted(x.eng); (ev > 0) != w.Evicts {
		res.sized(w, 1, "%d pairs evicted; the workload is sized so that eviction happens: %v", ev, w.Evicts)
	}

	// Timings are as the clock saw them: the best of the region's parts (see
	// regionParts), and the median of the set-ups.
	parts := cutParts(r.Chunks, regionParts)
	rates, cpus, lats := each(parts, chunkStat.rate), each(parts, chunkStat.cpu), x.partLatencies(parts)
	rate := slices.Max(rates)
	res.e2e("setup_s", median(setups))
	res.e2e("docs_per_s", rate)
	res.e2e("cpu_us_per_doc", slices.Min(cpus))
	res.e2e("heap_mb", heap)
	res.e2e("notify_p50_ms", slices.Min(lats))
	res.e2e("notifs_per_s", rate*float64(r.Notifs)/float64(r.Docs))
	res.e2e("detect_lag_ticks", mean(det.Lags))

	timingInfo(res, r.Chunks, rates, cpus, lats, setups, x.latencies(r.FirstTick, len(x.submit)))
	res.Info["docs"] = r.Docs
	res.Info["ticks"] = x.log.len()
	res.Info["region_s"] = r.Wall.Seconds()
	res.Info["tracked_pairs"] = x.eng.ActivePairs()
	res.Info["shards"] = x.eng.Shards()
	res.Info["hash"] = x.log.hash(x.hashUntil(firstPass))
	res.Info["happenings"] = det.Attempted
	if w.Durable {
		res.Info["recover_s"] = su.recover.Seconds()
	}
	if w.Subs > 0 {
		res.Info["matched_last_tick"] = x.eng.MatchedLastTick()
	}
	return res, nil
}

// timingInfo records what stands behind an untraced run's timings: every
// part's value, the same quantities over the whole region (all chunks, all
// ticks) with quartiles and sample counts, the tail the latency sample can
// support, and each set-up's time.
func timingInfo(res *result, chunks []chunkStat, rates, cpus, lats, setups, latencies []float64) {
	whole := cutParts(chunks, 1)[0]
	q1, q3 := quartiles(each(chunks, chunkStat.rate))
	lat := sortedCopy(latencies)
	top := highestPercentile(len(lat))
	res.Info["part_docs_per_s"] = rates
	res.Info["part_cpu_us_per_doc"] = cpus
	res.Info["part_notify_p50_ms"] = lats
	res.Info["setups_s"] = setups
	res.Info["region"] = map[string]any{
		"chunks":                    len(chunks),
		"docs_per_s":                whole.rate(),
		"chunk_docs_per_s_median":   median(each(chunks, chunkStat.rate)),
		"chunk_docs_per_s_q":        []float64{q1, q3},
		"cpu_us_per_doc":            whole.cpu(),
		"notify_samples":            len(lat),
		"notify_ms_q":               []float64{percentile(lat, 25), percentile(lat, 50), percentile(lat, 75)},
		"notify_highest_percentile": top,
		"notify_highest_ms":         percentile(lat, top),
	}
}

// evicted sums the engine's lifetime over-budget evictions.
func evicted(e *core.Engine) int64 {
	var n int64
	for _, v := range e.TailStats().EvictedByShard {
		n += v
	}
	return n
}
