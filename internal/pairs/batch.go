package pairs

import (
	"time"

	"enblogue/internal/intern"
)

// Doc is one document of an observation batch in interned form: its event
// time and its tag set as intern.Dedup produces it — distinct tag IDs.
type Doc struct {
	Time time.Time
	IDs  []uint32
}

// BatchDoc is one document of an observation batch as tag strings, the
// input of ObserveBatch.
type BatchDoc struct {
	Time time.Time
	Tags []string
}

// keyAt is one candidate-pair increment: the pair and the document's event
// time as an absolute window bucket (every increment of one document shares
// the bucket, converted once).
type keyAt struct {
	k   Key
	abs int64
}

// batchScratch is ObserveIDs' working set, owned by the tracker and reused
// across calls so the steady state allocates nothing: per-document seed
// flags and the chunk's candidate increments in document order. dedup,
// ids, docs and seeds are ObserveBatch's, for turning strings into IDs.
type batchScratch struct {
	seed []bool
	keys []keyAt

	dedup intern.Dedup
	ids   []uint32
	docs  []Doc
	seeds intern.Set
}

// ObserveBatch is ObserveIDs for documents given as tag strings under a
// string seed predicate (nil tracks all pairs): it interns and
// deduplicates each document's tags (intern.Dedup), collects the batch's
// tags that satisfy isSeed into an ID set, and calls ObserveIDs.
func (tr *ShardedTracker) ObserveBatch(docs []BatchDoc, isSeed func(string) bool) {
	sc := &tr.scratch
	sc.ids, sc.docs = sc.ids[:0], sc.docs[:0]
	for _, d := range docs {
		lo := len(sc.ids)
		sc.ids = sc.dedup.Append(sc.ids, d.Tags)
		// A later append may move sc.ids; this slice keeps the array it was
		// cut from, whose elements append never rewrites.
		sc.docs = append(sc.docs, Doc{Time: d.Time, IDs: sc.ids[lo:len(sc.ids):len(sc.ids)]})
	}
	if isSeed == nil {
		tr.ObserveIDs(sc.docs, nil)
		return
	}
	sc.seeds.Reset()
	for _, id := range sc.ids {
		if isSeed(intern.Lookup(id)) {
			sc.seeds.Add(id)
		}
	}
	tr.ObserveIDs(sc.docs, &sc.seeds)
}

// ObserveIDs is the tracker's ingest routine (one document is a batch of
// one; ObserveBatch is its string form). For each document, in order, it
// generates the candidate pairs of the document's tag IDs — those with at
// least one member in seeds; nil seeds tracks all pairs — and increments
// their counters on each pair's shard, in document order.
//
// Batch-cut invariance. The state after a document sequence does not depend
// on how the sequence was cut into calls, and equals what the serial
// reference Tracker — which checks its sweep trigger after every document —
// holds (TestObserveBatchMatchesSerial). Sweep timing is the only coupling
// between documents, and it is observable (eviction destroys windowed
// history), so a chunk ends wherever a trigger could fire:
//
//   - sinceGC: a chunk admits at most SweepEvery − sinceGC documents, so
//     the count trigger is reached exactly at a chunk boundary.
//   - npairs: a chunk admits documents while the worst-case new-pair total
//     (the sum of their candidate-pair counts) fits in MaxPairs − npairs,
//     so no prefix of it can go over budget. A document too large for the
//     remaining headroom forms a chunk of one.
//
// Within a chunk each shard sees its increments in document order, as the
// serial reference does, so slot allocation and every counter sum match
// it; counters are read only at sweep time or later. The clock is lifted
// to the chunk's newest timestamp before the post-chunk sweep check.
//
//enblogue:hotpath
func (tr *ShardedTracker) ObserveIDs(docs []Doc, seeds *intern.Set) {
	if len(docs) == 0 {
		return
	}
	sc := &tr.scratch
	arena := tr.shards[0].arena // all shards share Buckets/Resolution
	i := 0
	for i < len(docs) {
		maxDocs := int64(tr.cfg.SweepEvery) - tr.sinceGC
		if maxDocs < 1 {
			maxDocs = 1
		}
		headroom := int64(tr.cfg.MaxPairs - tr.npairs)

		// Plan the chunk: generate candidate increments doc by doc until a
		// sweep trigger could fire.
		sc.keys = sc.keys[:0]
		var (
			maxNano int64
			hasMax  bool
			cand    int64
		)
		j := i
		for j < len(docs) && int64(j-i) < maxDocs {
			d := docs[j]
			start := len(sc.keys)
			if ids := d.IDs; len(ids) >= 2 {
				sc.seed = sc.seed[:0]
				if seeds != nil {
					for _, id := range ids {
						sc.seed = append(sc.seed, seeds.Has(id))
					}
				}
				abs := arena.BucketIndex(d.Time)
				for a := 0; a < len(ids); a++ {
					for b := a + 1; b < len(ids); b++ {
						if seeds != nil && !sc.seed[a] && !sc.seed[b] {
							continue
						}
						sc.keys = append(sc.keys, keyAt{KeyFromIDs(ids[a], ids[b]), abs})
					}
				}
			}
			nc := int64(len(sc.keys) - start)
			if j > i && cand+nc > headroom {
				sc.keys = sc.keys[:start] // over budget: doc opens the next chunk
				break
			}
			cand += nc
			if n := d.Time.UnixNano(); !hasMax || n > maxNano {
				maxNano, hasMax = n, true
			}
			j++
		}

		// Apply the chunk: lift the clock, then replay the increments in
		// document order, each on its pair's shard.
		if maxNano > tr.nowNano || tr.nowNano == 0 {
			tr.nowNano = maxNano
		}
		n := len(tr.shards)
		for _, ka := range sc.keys {
			sh := tr.shards[ka.k.Shard(n)]
			sh.arena.IncAbs(tr.upsert(sh, ka.k), ka.abs)
		}

		// The per-document sweep check, at the chunk boundary.
		tr.sinceGC += int64(j - i)
		if tr.sinceGC >= int64(tr.cfg.SweepEvery) || tr.npairs > tr.cfg.MaxPairs {
			tr.sweep()
		}
		i = j
	}
}
