package core

import (
	"slices"
	"time"

	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
	"enblogue/internal/tier"
)

// machine is all the state that decides a ranking: tag statistics, the
// pair trackers, the detector, the seed selector and the event clock. It
// accepts two inputs, document batches (consume) and forced ticks (tick),
// and its next state is a function of its state and the input alone. The
// WAL logs exactly those inputs, so recovery replays them through the same
// two entry points that served them live.
//
// It takes no lock, reads no clock and starts no goroutine; only the
// callbacks it reports to (emit, logDoc) reach past it. Engine owns it and
// touches it only under e.mu; the tick's per-shard fan-out goes through
// run, which the engine sets to forEachShard.
type machine struct {
	cfg Config
	run func(n int, fn func(int))
	// logDoc, when set, receives every document as the machine counts it,
	// with its stream position: the engine points it at the WAL. Like
	// consume's emit it is an output and never feeds back into the state.
	logDoc func(seq int64, it *stream.Item)

	tags    *tagstats.Tracker
	pairsTr *pairs.ShardedTracker
	co      *pairs.ShardedTracker // DistributionMode only: every pair, seed or not
	det     *shift.Sharded        // shard i touched only by tick worker i
	seeds   *tagstats.SeedSelector

	// The event clock. docs counts consumed documents and lastSeen is the
	// newest event time, in UTC (zero before the first document). nextTick
	// is the next event-driven tick boundary; lastTick is the newest
	// evaluation time, the guard against forced-tick rewinds.
	docs     int64
	lastSeen time.Time
	nextTick time.Time
	lastTick time.Time

	// tagWalks counts walks over every active tag (seed selections), the
	// cost that must not grow with the document count.
	tagWalks int64

	// scratch is the per-tick working set — snapshot, keep-set, and top-k
	// buffers per shard plus the ID-keyed tag-count index. dedup turns each
	// document's tags into its ID set, docIDs; batchDocs and batchIDs hold
	// consume's pending documents and their IDs. All are reused across
	// calls so the steady state allocates almost nothing.
	scratch   tickScratch
	dedup     intern.Dedup
	docIDs    []uint32
	batchDocs []pairs.Doc
	batchIDs  []uint32
}

// newMachine builds the machine for a normalized configuration.
func newMachine(c Config, run func(n int, fn func(int))) *machine {
	tags := tagstats.NewTracker(tagstats.Config{
		Buckets:    c.WindowBuckets,
		Resolution: c.WindowResolution,
	})
	var tailCfg *tier.Config
	if c.TailSketch.Enabled {
		tailCfg = &tier.Config{
			Epsilon: c.TailSketch.Epsilon,
			Delta:   c.TailSketch.Delta,
			TopK:    c.TailSketch.TopK,
		}
	}
	pc := pairs.Config{
		Buckets:    c.WindowBuckets,
		Resolution: c.WindowResolution,
		MaxPairs:   c.MaxPairs,
		Shards:     c.Shards,
	}
	m := &machine{
		cfg:     c,
		run:     run,
		tags:    tags,
		scratch: newTickScratch(c.Shards),
		det: shift.NewSharded(c.Shards, shift.Config{
			Measure:         c.Measure,
			Predictor:       c.Predictor,
			PredictorConfig: c.PredictorConfig,
			HalfLife:        c.HalfLife,
			MinCooccurrence: c.MinCooccurrence,
			UpOnly:          c.UpOnly,
		}),
		seeds: tagstats.NewSeedSelector(c.SeedCount, c.SeedCriterion, c.SeedMinCount),
	}
	if c.DistributionMode {
		m.co = pairs.NewShardedTracker(pc) // no tail: every pair is counted
	}
	pc.Tail = tailCfg
	m.pairsTr = pairs.NewShardedTracker(pc)
	return m
}

// itemTags resolves the tag set the engine operates on for an item.
func (m *machine) itemTags(it *stream.Item) []string {
	if !m.cfg.UseEntities {
		return it.Tags
	}
	if m.cfg.Tagger != nil && len(it.Entities) == 0 && it.Text != "" {
		it = it.Clone()
		it.Entities = m.cfg.Tagger.Entities(it.Text)
	}
	return it.AllTags()
}

// consume feeds a run of items through seed statistics and pair tracking,
// firing an evaluation tick — handed to emit — each time event time passes
// a tick boundary. Nil items are skipped.
//
// Each document's tags are interned and deduplicated once, here
// (intern.Dedup); tag counts and pair planning both take that one ID set,
// so no later stage hashes a tag string.
//
// Rankings are invariant under how a stream is cut into batches, batches of
// one included. The batch is processed as segments delimited by the two
// events that change what a pair observation means: an evaluation tick
// (ticks snapshot pair counters) and a seed reselection (it changes the
// candidate predicate for documents observed after it). Documents
// accumulate as pending pair observations and are flushed through
// pairs.ShardedTracker.ObserveIDs before either event, under the seed set
// that was current when they arrived — so every document is observed under
// the same seeds, and every tick sees the same counters, wherever the batch
// boundaries fall. Within a segment the only per-document coupling is the
// pair tracker's over-budget sweep, which ObserveIDs fires at the same
// document however the segment is cut (see its doc comment). No pair or
// tag state is maintained by document count: emptied pairs and idle tags
// are dropped by the tick's own walks (see evaluate).
//
//enblogue:hotpath
func (m *machine) consume(items []*stream.Item, emit func(Ranking)) {
	pend, ids := m.batchDocs[:0], m.batchIDs[:0]
	// The seed set is updated in place by reselection, which every flush
	// precedes.
	seeds := m.seeds.Set()
	//enblogue:alloc-ok one closure per consume call, amortised over the whole batch; TestConsumeBatchSteadyStateAllocs pins the per-item count
	flush := func() {
		if len(pend) == 0 {
			return
		}
		m.pairsTr.ObserveIDs(pend, seeds)
		if m.co != nil {
			m.co.ObserveIDs(pend, nil)
		}
		pend, ids = pend[:0], ids[:0]
	}
	for _, it := range items {
		if it == nil {
			continue
		}
		t := it.Time

		if t.After(m.lastSeen) {
			m.lastSeen = t.UTC()
		}
		// Fire any ticks the stream has moved past. A pathological time jump
		// (archive gap) fast-forwards after one tick rather than replaying
		// empty ticks.
		if m.nextTick.IsZero() {
			m.nextTick = t.Add(m.cfg.TickEvery)
		}
		for !m.nextTick.After(t) {
			flush()
			emit(m.evaluate(m.nextTick))
			if t.Sub(m.nextTick) > 100*m.cfg.TickEvery {
				m.nextTick = t.Add(m.cfg.TickEvery)
			} else {
				m.nextTick = m.nextTick.Add(m.cfg.TickEvery)
			}
		}

		m.docIDs = m.dedup.Append(m.docIDs[:0], m.itemTags(it))
		m.tags.ObserveIDs(t, m.docIDs)
		m.docs++
		if m.logDoc != nil {
			// The raw item is logged (pre-itemTags), so replay re-derives
			// entity tags identically instead of trusting a stale derivation.
			m.logDoc(m.docs, it)
		}
		if len(m.seeds.Seeds()) == 0 && m.seedsDue() {
			// Bootstrap the seed set once enough documents have arrived, so
			// pair tracking starts before the first tick. Earlier documents
			// flush under the old predicate; this one is observed under the
			// new.
			flush()
			m.tagWalks++
			m.seeds.Reselect(m.tags)
		}
		// The pending document's IDs live in ids until its flush. A later
		// append may move ids; the document keeps the array its IDs were
		// copied into, and append never rewrites existing elements.
		lo := len(ids)
		ids = append(ids, m.docIDs...)
		pend = append(pend, pairs.Doc{Time: t, IDs: ids[lo:len(ids):len(ids)]})
	}
	flush()
	m.batchDocs, m.batchIDs = pend[:0], ids[:0]
}

// seedsDue reports whether the document just counted must reselect an
// empty seed set. The document that completes the warm-up always does.
// After it, an empty set means the last selection found no tag with
// SeedMinCount windowed documents; counts rise only as documents are
// observed, so a selection can come out non-empty only at a document one
// of whose own tags has reached SeedMinCount. Testing just those tags
// keeps the per-document cost independent of the vocabulary while no tag
// qualifies, and reselects at exactly the documents where the set appears.
//
//enblogue:hotpath
func (m *machine) seedsDue() bool {
	warm := int64(m.cfg.SeedWarmupDocs)
	return m.docs == warm ||
		m.docs > warm && m.tags.AnyCountAtLeast(m.docIDs, m.seeds.MinCount)
}

// tick is the forced-tick input: it evaluates at t unless an evaluation at
// or after t already ran, in which case it reports false and changes
// nothing — a forced tick must not rewind the ranking or feed every pair's
// predictor a duplicate observation. A zero t is never after lastTick, so
// it is always refused.
func (m *machine) tick(t time.Time) (Ranking, bool) {
	if !t.After(m.lastTick) {
		return Ranking{}, false
	}
	return m.evaluate(t), true
}

// evaluate reselects seeds, evaluates every candidate pair — all shards in
// parallel, one worker per shard — merges the per-shard top-k partial
// rankings, and sweeps dead detector state. The returned ranking owns its
// slices.
//
// The merge is exact: a topic in the global top-k is necessarily in its own
// shard's top-k, so concatenating the per-shard prefixes and re-sorting
// with the same comparator yields the same ranking a single global sort
// would.
func (m *machine) evaluate(t time.Time) Ranking {
	if t.After(m.lastTick) {
		m.lastTick = t
	}

	n := m.tags.DocCount()
	// One snapshot per tick of whatever the workers will read, so the
	// parallel shard workers never touch (and mutate, or serialise on) the
	// shared trackers. The tag-count index is keyed by interned tag ID and
	// reused across ticks: workers then look pair members up by uint32
	// instead of hashing two strings per pair. Seed reselection is fused
	// into the same pass over the tag statistics (one slot-ordered walk per
	// tick, not two), selecting through a bounded heap with exactly Top's
	// ordering; the same walk releases the tags whose windows have emptied.
	ts := &m.scratch
	ts.beginCounts()
	m.tagWalks++
	ts.topStats = m.tags.TopAppendIDs(m.seeds.K, m.seeds.Criterion, m.seeds.MinCount,
		ts.topStats[:0], ts.setCount)
	seeds := m.seeds.ReselectFrom(ts.topStats)

	// Promote tail-tier pairs whose estimates crossed the admission floor
	// before taking evaluation snapshots, so a re-admitted pair is scored
	// in this same tick. No-op while the tail sketch is disabled. Runs at
	// tick time, not ingest time: promotion scans the per-shard summaries,
	// which would be wasted work on the per-document path, and tick
	// boundaries are event-time deterministic, so promotion points replay
	// identically.
	m.pairsTr.PromoteTail(t)

	// Snapshot every shard's pairs first, then decide the round advance
	// from the snapshots themselves: the workers evaluate exactly these
	// pairs, so the shard detectors' evaluation-round clocks advance
	// precisely when a single global detector would. Each snapshot drops
	// its shard's emptied pairs, so a pair is scored iff its window is
	// non-empty at t. The drops follow PromoteTail, whose headroom still
	// counts the emptied pairs; bench/'s replay calls the two in this
	// order too.
	nsh := m.pairsTr.Shards()
	m.run(nsh, func(i int) {
		ts.snaps[i] = m.pairsTr.AppendSnapshot(i, ts.snaps[i][:0])
		if m.co != nil {
			ts.coSnaps[i] = m.co.AppendSnapshot(i, ts.coSnaps[i][:0])
		}
	})
	if m.co != nil {
		ts.co.Build(ts.coSnaps)
	}
	total := 0
	for _, s := range ts.snaps {
		total += len(s)
	}
	if total > 0 {
		m.det.BeginTick(t)
	}

	eval := func(i int) {
		snap := ts.snaps[i]
		det := m.det.Shard(i)
		hbuf, hidx := ts.heapBuf[i][:0], ts.heapIdx[i][:0]
		// One Topic reused across the whole shard: the detector assigns
		// every field when it fills it, and topkPush copies only when the
		// topic is actually kept. The running heap root is fed back to the
		// detector as the admission floor, so a pair that cannot reach the
		// shard's current top-k (its score is below the root) updates its
		// detector state exactly as an unfloored evaluation would and
		// returns without materialising a Topic — the selected set is
		// exactly what an unfloored evaluation would select.
		var topic shift.Topic
		floor := 0.0
		for _, pc := range snap {
			var filled bool
			ida, idb := pc.Key.IDs()
			if m.co != nil {
				filled = det.EvaluateCorrelationInto(t, pc.Key, pc.Slot,
					ts.co.Similarity(ida, idb), pc.Count, floor, &topic)
			} else {
				filled = det.EvaluateInto(t, pc.Key, pc.Slot, pc.Count,
					ts.count(ida), ts.count(idb), n, floor, &topic)
			}
			if filled && topic.Score > 0 {
				hbuf, hidx = topkPush(hbuf, hidx, m.cfg.TopK, &topic)
				if len(hidx) == m.cfg.TopK {
					floor = hbuf[hidx[0]].Score
				}
			}
		}
		// Materialise the kept set best-first: sort the index heap (int32
		// swaps, in-place reads) and copy each topic out once.
		slices.SortFunc(hidx, func(a, b int32) int { return topicCmp(&hbuf[a], &hbuf[b]) })
		top := ts.tops[i][:0]
		for _, j := range hidx {
			top = append(top, hbuf[j])
		}
		// Every pair just evaluated carries seen == t, so the stale sweep
		// is exactly the old keep-map sweep without building a keep set.
		det.SweepStale(t, 1e-9)
		ts.heapBuf[i], ts.heapIdx[i], ts.tops[i] = hbuf, hidx, top
	}
	m.run(nsh, eval)

	ts.merged = ts.merged[:0]
	for _, shardTop := range ts.tops {
		ts.merged = append(ts.merged, shardTop...)
	}
	sortTopics(ts.merged)
	top := ts.merged
	if len(top) > m.cfg.TopK {
		top = top[:m.cfg.TopK]
	}
	// The ranking owns a fresh slice: the merge buffer is reused next tick,
	// while the Ranking escapes to the broker and history.
	topics := append([]shift.Topic(nil), top...)
	return Ranking{At: t, Seeds: seeds, Topics: topics}
}

// topicCmp is the engine's deterministic ranking order as a three-way
// comparator: descending score, ties broken by the pair rendering (compared
// through Key.Less, which orders exactly like the rendered strings without
// building them).
func topicCmp(a, b *shift.Topic) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.Pair.Less(b.Pair) {
		return -1
	}
	if b.Pair.Less(a.Pair) {
		return 1
	}
	return 0
}

// sortTopics orders topics under topicCmp.
func sortTopics(topics []shift.Topic) {
	slices.SortFunc(topics, func(a, b shift.Topic) int {
		return topicCmp(&a, &b)
	})
}

// topicWorse reports whether a ranks strictly below b in the engine's
// deterministic ranking order: lower score, ties by pair rendering
// descending.
func topicWorse(a, b *shift.Topic) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return b.Pair.Less(a.Pair)
}

// topkPush folds t into a bounded min-heap of capacity k whose root is the
// worst kept topic under topicWorse. Kept topics live in buf while the heap
// itself is idx, an array of positions into buf: sift operations swap int32
// indexes instead of ~100-byte Topic structs, and comparisons read buf in
// place. Selecting the per-shard top-k this way replaces the former sort of
// every scored topic per shard per tick (O(p log p)) with O(p log k), and
// both slices are reused across ticks. The ranking order is a strict total
// order (scores tie-broken by distinct pair keys), so the kept set — later
// materialised in topicCmp order — is exactly the prefix a full
// sort-and-trim would keep.
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
		return buf, idx // t is no better than the worst kept topic
	}
	buf[idx[0]] = *t
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(idx) && topicWorse(&buf[idx[l]], &buf[idx[m]]) {
			m = l
		}
		if r < len(idx) && topicWorse(&buf[idx[r]], &buf[idx[m]]) {
			m = r
		}
		if m == i {
			break
		}
		idx[i], idx[m] = idx[m], idx[i]
		i = m
	}
	return buf, idx
}

// tickScratch is the machine's reusable per-tick working set; see the
// machine.scratch field. Tag counts live in a dense epoch-tagged index
// keyed by interned tag ID: setCount stamps an entry with the current
// tick's epoch, count reads entries stamped this epoch and returns 0 for
// anything older — so "clearing" the index between ticks is one integer
// increment, and the per-pair lookup is two array reads instead of a
// string-keyed map probe.
type tickScratch struct {
	counts     []float64
	countEpoch []uint32
	epoch      uint32
	snaps      [][]pairs.PairCount
	// coSnaps and co are the distribution-mode working set: the co
	// tracker's per-shard snapshots and the co-tag index built from them.
	coSnaps [][]pairs.PairCount
	co      pairs.CoIndex
	tops    [][]shift.Topic
	// heapBuf and heapIdx are the per-shard topkPush working sets: kept
	// topics and the index heap over them.
	heapBuf [][]shift.Topic
	heapIdx [][]int32
	merged  []shift.Topic
	// topStats is the seed-selection buffer handed to tagstats.TopAppendIDs,
	// reused across ticks like every other buffer here.
	topStats []tagstats.TagStat
}

func newTickScratch(shards int) tickScratch {
	return tickScratch{
		snaps:   make([][]pairs.PairCount, shards),
		coSnaps: make([][]pairs.PairCount, shards),
		tops:    make([][]shift.Topic, shards),
		heapBuf: make([][]shift.Topic, shards),
		heapIdx: make([][]int32, shards),
	}
}

// beginCounts starts a fresh count epoch.
func (ts *tickScratch) beginCounts() { ts.epoch++ }

// setCount records tag id's windowed count for the current epoch, growing
// the index as the interned vocabulary grows. Growth goes through append,
// so its capacity grows geometrically: a vocabulary that grows one ID at a
// time costs O(log n) reallocations, not one per new maximum ID.
func (ts *tickScratch) setCount(id uint32, v float64) {
	if n := int(id) + 1; n > len(ts.counts) {
		ts.counts = append(ts.counts, make([]float64, n-len(ts.counts))...)
		ts.countEpoch = append(ts.countEpoch, make([]uint32, n-len(ts.countEpoch))...)
	}
	ts.counts[id] = v
	ts.countEpoch[id] = ts.epoch
}

// count returns tag id's windowed count for the current epoch, 0 if the
// tag was not recorded this tick.
func (ts *tickScratch) count(id uint32) float64 {
	if int(id) >= len(ts.countEpoch) || ts.countEpoch[id] != ts.epoch {
		return 0
	}
	return ts.counts[id]
}
