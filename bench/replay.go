package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
	"enblogue/internal/tier"
)

// replay is the second tree of a traced run: the harness owns a tag
// tracker, seed selector, sharded pair tracker and sharded detector and
// drives them through the same documents and ticks as the engine, in
// tickLocked's order, with a span around every call into a layer. It
// re-implements only the engine's glue (batch segmentation, the top-k heap,
// the merge); every layer call goes to the layer's public function. Its
// rankings must hash equal to the engine's — that is what licenses
// subtracting its stage times from the engine's spans.
type replay struct {
	account
	cfg   core.Config // normalized, from Engine.Config
	tags  *tagstats.Tracker
	seeds *tagstats.SeedSelector
	trk   *pairs.ShardedTracker
	det   *shift.Sharded
	// truth is an unbounded exact tracker fed the same observations, the
	// reference for tier.recall_at_20; nil unless the sketch tier is on.
	truth *pairs.ShardedTracker
	// table is the private intern table behind intern.intern_ns_per_tag.
	table intern.Table

	seenDocs int64
	pend     []pairs.BatchDoc
	segs     []segment

	// tick scratch, as core.tickScratch.
	counts     []float64
	countEpoch []uint32
	epoch      uint32
	snaps      [][]pairs.PairCount
	tops       [][]shift.Topic
	heapBuf    [][]shift.Topic
	heapIdx    [][]int32
	merged     []shift.Topic
	topStats   []tagstats.TagStat

	// tr is nil during the warm-up; parent is the current pass span.
	tr     *tracer
	parent int32

	// Work inside the parallel tick stages of the traced region: written
	// per shard by that shard's worker, folded into the sums after the join.
	wEval, wSweep, wPruned []int64
	evalNs, sweepNs        int64
	evaluated, pruned      int64
	// snapSum and snapMax add up, tick by tick, the pairs snapshotted in
	// total and by the fullest shard.
	snapSum, snapMax int64
	ticks            int64
	promoted         int64
	candidates       int64 // candidate pair increments of traced documents
	tracedDocs       int64
	recallSum        float64
	recallN          int
	victims          []victim
}

// victim is one over-budget eviction captured through SetOnEvict.
type victim struct {
	key   uint64
	count uint64
}

// maxVictims bounds the captured eviction sample.
const maxVictims = 1 << 18

func newReplay(gen *generator, cfg core.Config) *replay {
	r := &replay{account: newAccount(gen), cfg: cfg}
	r.tags = tagstats.NewTracker(tagstats.Config{Buckets: cfg.WindowBuckets, Resolution: cfg.WindowResolution})
	r.tags.SetTagIDResolver(intern.Find)
	r.seeds = tagstats.NewSeedSelector(cfg.SeedCount, cfg.SeedCriterion, cfg.SeedMinCount)
	pc := pairs.Config{
		Buckets: cfg.WindowBuckets, Resolution: cfg.WindowResolution,
		MaxPairs: cfg.MaxPairs, Shards: cfg.Shards,
	}
	if cfg.TailSketch.Enabled {
		pc.Tail = &tier.Config{Epsilon: cfg.TailSketch.Epsilon, Delta: cfg.TailSketch.Delta, TopK: cfg.TailSketch.TopK}
		unbounded := pc
		unbounded.MaxPairs, unbounded.Tail = 1<<30, nil
		r.truth = pairs.NewShardedTracker(unbounded)
	}
	r.trk = pairs.NewShardedTracker(pc)
	r.trk.SetOnEvict(func(k pairs.Key, count float64) {
		if len(r.victims) < maxVictims {
			r.victims = append(r.victims, victim{packedKey(k), uint64(count)})
		}
	})
	r.det = shift.NewSharded(cfg.Shards, shift.Config{
		Measure: cfg.Measure, Predictor: cfg.Predictor, PredictorConfig: cfg.PredictorConfig,
		HalfLife: cfg.HalfLife, MinCooccurrence: cfg.MinCooccurrence, UpOnly: cfg.UpOnly,
	})
	n := cfg.Shards
	r.snaps = make([][]pairs.PairCount, n)
	r.tops = make([][]shift.Topic, n)
	r.heapBuf = make([][]shift.Topic, n)
	r.heapIdx = make([][]int32, n)
	r.wEval, r.wSweep, r.wPruned = make([]int64, n), make([]int64, n), make([]int64, n)
	return r
}

// packedKey rebuilds the uint64 a pairs.Key packs its two IDs into — the
// form internal/tier keys on.
func packedKey(k pairs.Key) uint64 {
	a, b := k.IDs()
	return (uint64(a)+1)<<32 | (uint64(b) + 1)
}

// span opens a span under the current pass when tracing is on.
func (r *replay) span(name string) int32 {
	if r.tr == nil {
		return -1
	}
	return r.tr.begin(name, r.parent)
}

func (r *replay) end(id int32, count int64) {
	if id >= 0 {
		r.tr.end(id, count)
	}
}

// pass replays the next pass: runs of at most 512 boundary-free documents
// through the per-document layers, a tick at every boundary — the segments
// splitAtTicks hands the traced engine.
func (r *replay) pass() {
	items := r.nextItems()
	if r.tr != nil {
		r.parent = r.tr.begin("pass", -1)
	}
	clock := r.clock // the splitter advances a copy; ticks advance the original
	r.segs = splitAtTicks(items, &clock, batchDocs, r.segs[:0])
	for _, sg := range r.segs {
		docs := items[sg.Lo:sg.Hi]
		if r.clock.Next.IsZero() {
			r.clock.Next = docs[0].Time.Add(r.clock.Every)
		}
		// The engine fires every boundary a document crossed before
		// observing it.
		for sg.Tick && !r.clock.Next.After(docs[0].Time) {
			r.tick(r.clock.Next)
			r.expect++
			r.clock.Next = r.clock.Next.Add(r.clock.Every)
		}
		r.observe(docs)
	}
	if r.tr != nil {
		r.tr.end(r.parent, int64(len(items)))
		if r.truth != nil {
			r.recallSum += r.recall(20)
			r.recallN++
		}
	}
}

// observe feeds a boundary-free run of documents through tagstats, the
// private intern table and the pair tracker, as one ConsumeBatch would.
func (r *replay) observe(docs []*stream.Item) {
	r.lastDoc = docs[len(docs)-1].Time
	r.docs += int64(len(docs))
	if len(r.seeds.Seeds()) == 0 {
		// Stream start: the seed set bootstraps after SeedWarmupDocs
		// documents, between one document's bookkeeping and its pair
		// observation, exactly as in Engine.ConsumeBatch.
		for _, it := range docs {
			r.tags.Observe(it.Time, it.Tags)
			r.seenDocs++
			if len(r.seeds.Seeds()) == 0 && r.seenDocs >= int64(r.cfg.SeedWarmupDocs) {
				r.observePairs()
				r.seeds.Reselect(r.tags)
			}
			r.pend = append(r.pend, pairs.BatchDoc{Time: it.Time, Tags: it.Tags})
		}
		r.observePairs()
		return
	}
	id := r.span("tagstats.observe")
	for _, it := range docs {
		r.tags.Observe(it.Time, it.Tags)
	}
	r.end(id, int64(len(docs)))
	r.seenDocs += int64(len(docs))

	ntags := int64(0)
	id = r.span("intern.intern")
	for _, it := range docs {
		for _, tag := range it.Tags {
			r.table.Intern(tag)
		}
		ntags += int64(len(it.Tags))
	}
	r.end(id, ntags)

	for _, it := range docs {
		r.pend = append(r.pend, pairs.BatchDoc{Time: it.Time, Tags: it.Tags})
	}
	if r.tr != nil {
		// Candidate increments under the tracker's rule: every unordered
		// pair of a document's tags with at least one seed among them.
		isSeed := r.seeds.Func()
		for _, it := range docs {
			n, plain := len(it.Tags), 0
			for _, tag := range it.Tags {
				if !isSeed(tag) {
					plain++
				}
			}
			r.candidates += int64(n*(n-1)/2 - plain*(plain-1)/2)
		}
		r.tracedDocs += int64(len(docs))
	}
	r.observePairs()
}

// observePairs hands the pending documents to the pair tracker under the
// current seed predicate.
func (r *replay) observePairs() {
	if len(r.pend) == 0 {
		return
	}
	isSeed := r.seeds.Func()
	id := r.span("pairs.observe")
	r.trk.ObserveBatch(r.pend, isSeed)
	r.end(id, int64(len(r.pend)))
	if r.truth != nil {
		r.truth.ObserveBatch(r.pend, isSeed)
	}
	clear(r.pend)
	r.pend = r.pend[:0]
}

// flush mirrors Engine.Flush: a final tick at the last event time unless an
// evaluation already ran there.
func (r *replay) flush() {
	if r.lastDoc.After(r.lastTick) {
		r.tick(r.lastDoc)
		r.expect++
	}
}

// eachShard is core.forEachShard: fn(0..n-1) over min(n, GOMAXPROCS)
// goroutines in strided order, inline when that is one.
func eachShard(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

func (r *replay) setCount(id uint32, v float64) {
	if int(id) >= len(r.counts) {
		r.counts = append(r.counts, make([]float64, int(id)+1-len(r.counts))...)
		r.countEpoch = append(r.countEpoch, make([]uint32, int(id)+1-len(r.countEpoch))...)
	}
	r.counts[id] = v
	r.countEpoch[id] = r.epoch
}

func (r *replay) count(id uint32) float64 {
	if int(id) >= len(r.countEpoch) || r.countEpoch[id] != r.epoch {
		return 0
	}
	return r.counts[id]
}

// tick is core.Engine.tickLocked for the default (set-overlap) correlation
// mode, stage by stage.
func (r *replay) tick(t time.Time) {
	if t.After(r.lastTick) {
		r.lastTick = t
	}
	whole := r.span("core.tick")
	saved := r.parent
	if whole >= 0 {
		r.parent = whole
	}
	n := r.tags.DocCount()

	id := r.span("tagstats.top")
	r.epoch++
	r.topStats = r.tags.TopAppend(r.seeds.K, r.seeds.Criterion, r.seeds.MinCount, r.topStats[:0],
		func(tag string, id uint32, v float64) {
			if id != tagstats.NoID {
				r.setCount(id, v)
			}
		})
	r.seeds.ReselectFrom(r.topStats)
	r.end(id, int64(r.tags.ActiveTags()))

	id = r.span("pairs.promote")
	promoted := r.trk.PromoteTail(t)
	r.end(id, int64(promoted))

	nsh := r.trk.Shards()
	id = r.span("pairs.snapshot")
	eachShard(nsh, func(i int) { r.snaps[i] = r.trk.AppendSnapshot(i, r.snaps[i][:0]) })
	total, fullest := 0, 0
	for _, s := range r.snaps {
		total += len(s)
		fullest = max(fullest, len(s))
	}
	r.end(id, int64(total))

	id = r.span("shift.begin")
	if total > 0 {
		r.det.BeginTick(t)
	}
	r.end(id, 0)

	topK := r.cfg.TopK
	id = r.span("shift.evaluate")
	eachShard(nsh, func(i int) {
		t0 := time.Now()
		det := r.det.Shard(i)
		hbuf, hidx := r.heapBuf[i][:0], r.heapIdx[i][:0]
		var topic shift.Topic
		floor := 0.0
		unfilled := int64(0) // folded into wPruned once: the workers' slots share a cache line
		for _, pc := range r.snaps[i] {
			ida, idb := pc.Key.IDs()
			filled := det.EvaluateInto(t, pc.Key, pc.Slot, pc.Count, r.count(ida), r.count(idb), n, floor, &topic)
			if !filled {
				unfilled++
			}
			if filled && topic.Score > 0 {
				hbuf, hidx = topkPush(hbuf, hidx, topK, &topic)
				if len(hidx) == topK {
					floor = hbuf[hidx[0]].Score
				}
			}
		}
		slices.SortFunc(hidx, func(a, b int32) int { return topicCmp(&hbuf[a], &hbuf[b]) })
		top := r.tops[i][:0]
		for _, j := range hidx {
			top = append(top, hbuf[j])
		}
		t1 := time.Now()
		det.SweepStale(t, 1e-9)
		r.wEval[i] = int64(t1.Sub(t0))
		r.wSweep[i] = int64(time.Since(t1))
		r.wPruned[i] = unfilled
		r.heapBuf[i], r.heapIdx[i], r.tops[i] = hbuf, hidx, top
	})
	r.end(id, int64(total))

	id = r.span("core.merge")
	r.merged = r.merged[:0]
	for _, top := range r.tops {
		r.merged = append(r.merged, top...)
	}
	slices.SortFunc(r.merged, func(a, b shift.Topic) int { return topicCmp(&a, &b) })
	m := r.merged
	if len(m) > topK {
		m = m[:topK]
	}
	topics := append([]shift.Topic(nil), m...)
	r.end(id, int64(len(topics)))

	if whole >= 0 {
		r.tr.end(whole, int64(total))
		r.parent = saved
		r.ticks++
		r.snapSum += int64(total)
		r.snapMax += int64(fullest)
		r.evaluated += int64(total)
		r.promoted += int64(promoted)
		for i := 0; i < nsh; i++ {
			r.evalNs += r.wEval[i]
			r.sweepNs += r.wSweep[i]
			r.pruned += r.wPruned[i]
		}
	}
	r.log.add(t, 0, topics)
}

// topicCmp and topkPush are core's deterministic ranking order and bounded
// index heap, reproduced so the replay selects exactly the engine's top-k.
func topicCmp(a, b *shift.Topic) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return a.Pair.Compare(b.Pair)
}

func topicWorse(a, b *shift.Topic) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return b.Pair.Less(a.Pair)
}

func topkPush(buf []shift.Topic, idx []int32, k int, t *shift.Topic) ([]shift.Topic, []int32) {
	if len(idx) < k {
		buf = append(buf, *t)
		idx = append(idx, int32(len(buf)-1))
		for i := len(idx) - 1; i > 0; {
			p := (i - 1) / 2
			if !topicWorse(&buf[idx[i]], &buf[idx[p]]) {
				break
			}
			idx[i], idx[p] = idx[p], idx[i]
			i = p
		}
		return buf, idx
	}
	if !topicWorse(&buf[idx[0]], t) {
		return buf, idx
	}
	buf[idx[0]] = *t
	for i := 0; ; {
		l, rr := 2*i+1, 2*i+2
		m := i
		if l < len(idx) && topicWorse(&buf[idx[l]], &buf[idx[m]]) {
			m = l
		}
		if rr < len(idx) && topicWorse(&buf[idx[rr]], &buf[idx[m]]) {
			m = rr
		}
		if m == i {
			break
		}
		idx[i], idx[m] = idx[m], idx[i]
		i = m
	}
	return buf, idx
}

// recall is the share of the unbounded tracker's top-k pairs by windowed
// count that the budgeted tracker also ranks in its top-k.
func (r *replay) recall(k int) float64 {
	top := func(tr *pairs.ShardedTracker) []pairs.PairCount {
		var all []pairs.PairCount
		for i := 0; i < tr.Shards(); i++ {
			all = tr.AppendSnapshot(i, all)
		}
		slices.SortFunc(all, func(a, b pairs.PairCount) int {
			if a.Count != b.Count {
				if a.Count > b.Count {
					return -1
				}
				return 1
			}
			return a.Key.Compare(b.Key)
		})
		return all[:min(k, len(all))]
	}
	want, got := top(r.truth), top(r.trk)
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, wpc := range want {
		for _, g := range got {
			if g.Key == wpc.Key {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}
