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
// flags and the chunk's candidate increments, one buffer per shard, each
// in document order. dedup, ids, docs and seeds are ObserveBatch's, for
// turning strings into IDs.
type batchScratch struct {
	seed    []bool
	byShard [][]keyAt

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
// holds (TestObserveBatchMatchesSerial). The over-budget sweep is the only
// coupling between documents, and it is observable (eviction destroys
// windowed history), so a chunk ends wherever it could fire: a chunk admits
// documents while the worst-case new-pair total (the sum of their
// candidate-pair counts) fits in MaxPairs − ActivePairs, so no prefix of it
// can go over budget. A document too large for the remaining headroom forms
// a chunk of one.
//
// A chunk is planned straight into one buffer per shard and applied one
// shard at a time, so each shard's table and wheel stay in cache while its
// increments run; each shard still sees its own increments in document
// order, as the serial reference does, so slot allocation and every count
// match it. The clock is lifted to the chunk's newest timestamp — every
// wheel expiring the buckets that leave the window — before the
// increments, and counts are read only at sweep time or later.
//
//enblogue:hotpath
func (tr *ShardedTracker) ObserveIDs(docs []Doc, seeds *intern.Set) {
	if len(docs) == 0 {
		return
	}
	sc := &tr.scratch
	n := len(tr.shards)
	for len(sc.byShard) < n {
		sc.byShard = append(sc.byShard, nil)
	}
	res := int64(tr.cfg.Resolution)
	i := 0
	for i < len(docs) {
		headroom := int64(tr.cfg.MaxPairs - tr.ActivePairs())

		// Plan the chunk: count each document's candidate pairs first, and
		// generate them only if the document fits, so a document that could
		// take the tracker over budget opens the next chunk untouched.
		for s := range sc.byShard {
			sc.byShard[s] = sc.byShard[s][:0]
		}
		var (
			maxNano int64
			hasMax  bool
			cand    int64
		)
		j := i
		for j < len(docs) {
			d := docs[j]
			t := d.Time.UnixNano()
			ids := d.IDs
			k := int64(len(ids))
			nc := k * (k - 1) / 2
			if seeds != nil && k >= 2 {
				sc.seed = sc.seed[:0]
				others := int64(0)
				for _, id := range ids {
					in := seeds.Has(id)
					sc.seed = append(sc.seed, in)
					if !in {
						others++
					}
				}
				nc -= others * (others - 1) / 2 // pairs with no seed
			}
			if j > i && cand+nc > headroom {
				break // over budget: doc opens the next chunk
			}
			if nc > 0 {
				abs := t / res
				for a := 0; a < len(ids); a++ {
					for b := a + 1; b < len(ids); b++ {
						if seeds != nil && !sc.seed[a] && !sc.seed[b] {
							continue
						}
						key := KeyFromIDs(ids[a], ids[b])
						s := key.Shard(n)
						sc.byShard[s] = append(sc.byShard[s], keyAt{key, abs})
					}
				}
			}
			cand += nc
			if !hasMax || t > maxNano {
				maxNano, hasMax = t, true
			}
			j++
		}

		// Apply the chunk: lift the clock, expiring what leaves every
		// shard's window, then each shard's increments in document order.
		if maxNano > tr.nowNano || tr.nowNano == 0 {
			tr.nowNano = maxNano
		}
		head := tr.nowNano / res
		for s, sh := range tr.shards {
			sh.wheel.advance(head)
			for _, ka := range sc.byShard[s] {
				sh.wheel.inc(sh.upsert(ka.k), ka.abs)
			}
		}

		// The per-document budget check, at the chunk boundary.
		if tr.ActivePairs() > tr.cfg.MaxPairs {
			tr.sweep()
		}
		i = j
	}
}
