package pairs

import (
	"time"

	"enblogue/internal/intern"
)

// BatchDoc is one document of an observation batch: its event time and tag
// set.
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

// batchScratch is ObserveBatch's working set, owned by the tracker and
// reused across calls so the steady state allocates nothing: per-document
// interned IDs and seed flags, the chunk's candidate increments in document
// order, and the per-shard groups (one per shard, sized at construction).
type batchScratch struct {
	ids     []uint32
	seed    []bool
	keys    []keyAt
	byShard [][]keyAt
}

// ObserveBatch is the tracker's only ingest routine (one document is a batch
// of one). For each document, in order, it deduplicates and interns the
// tags, generates the candidate pairs (those with at least one tag
// satisfying isSeed; nil isSeed tracks all pairs) and increments their
// counters, applying each chunk shard by shard.
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
// Within a chunk increments commute: each (pair, bucket) increment is
// applied once and counters are read only at sweep time or later, so
// grouping by shard changes nothing observable. The clock is lifted to the
// chunk's newest timestamp before the post-chunk sweep check. Documents are
// prepared in document order, so interned-ID assignment — and therefore
// shard placement — does not depend on the cut either.
//
//enblogue:hotpath
func (tr *ShardedTracker) ObserveBatch(docs []BatchDoc, isSeed func(string) bool) {
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
			if len(d.Tags) >= 2 {
				uniq := dedupTags(d.Tags)
				sc.ids = sc.ids[:0]
				sc.seed = sc.seed[:0]
				for _, tag := range uniq {
					sc.ids = append(sc.ids, intern.Intern(tag))
					if isSeed != nil {
						sc.seed = append(sc.seed, isSeed(tag))
					}
				}
				abs := arena.BucketIndex(d.Time)
				for a := 0; a < len(sc.ids); a++ {
					for b := a + 1; b < len(sc.ids); b++ {
						if isSeed != nil && !sc.seed[a] && !sc.seed[b] {
							continue
						}
						sc.keys = append(sc.keys, keyAt{KeyFromIDs(sc.ids[a], sc.ids[b]), abs})
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

		// Apply the chunk: lift the clock, then replay each shard's
		// increments in document order.
		if maxNano > tr.nowNano || tr.nowNano == 0 {
			tr.nowNano = maxNano
		}
		if len(tr.shards) == 1 {
			sh := tr.shards[0]
			for _, ka := range sc.keys {
				sh.arena.IncAbs(tr.upsert(sh, ka.k), ka.abs)
			}
		} else {
			for _, ka := range sc.keys {
				s := ka.k.Shard(len(tr.shards))
				sc.byShard[s] = append(sc.byShard[s], ka)
			}
			for s, kas := range sc.byShard {
				sh := tr.shards[s]
				for _, ka := range kas {
					sh.arena.IncAbs(tr.upsert(sh, ka.k), ka.abs)
				}
				sc.byShard[s] = kas[:0]
			}
		}

		// The per-document sweep check, at the chunk boundary.
		tr.sinceGC += int64(j - i)
		if tr.sinceGC >= int64(tr.cfg.SweepEvery) || tr.npairs > tr.cfg.MaxPairs {
			tr.sweep()
		}
		i = j
	}
}
