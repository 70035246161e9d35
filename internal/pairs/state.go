package pairs

import (
	"errors"
	"fmt"
)

// This file is the pair trackers' durability surface. Exports are canonical:
// pairs are emitted sorted by Key.Compare (the rendered-string order, which
// does not depend on interned IDs or shard placement), every window headed
// at the tracker clock's bucket and holding only its non-zero buckets, so
// two trackers holding the same logical state — regardless of shard count,
// slot layout, or how their entries were split and merged — export
// identical state. Restores re-partition by the restoring tracker's own
// shard count, so a snapshot taken at one shard count restores into any
// other.

// PairState is one tracked pair's exported window.
type PairState struct {
	Key    Key
	Window PairWindow
}

// ShardedTrackerState is the full serializable state of a ShardedTracker.
type ShardedTrackerState struct {
	Pairs   []PairState // sorted by Key.Compare
	NowNano int64
}

// ExportState returns the tracker's full state with pairs sorted by
// Key.Compare. It reads the touch lists, mutating nothing: one counting
// pass sizes each pair's run of non-zero buckets, and the writing pass
// fills the runs, oldest bucket first, in one backing array — entries of
// one bucket merged — so the export allocates a fixed number of times
// whatever the pair count, and its size follows the buckets touched, not
// pairs × buckets.
func (tr *ShardedTracker) ExportState() ShardedTrackerState {
	n := tr.ActivePairs()
	keys := make([]Key, 0, n)
	where := make([]uint64, 0, n) // shard<<32 | slot, parallel to keys
	base := make([]int, len(tr.shards)+1)
	for s, sh := range tr.shards {
		base[s+1] = base[s] + len(sh.keys)
		for slot, k := range sh.keys {
			if k != (Key{}) {
				keys = append(keys, k)
				where = append(where, uint64(s)<<32|uint64(slot))
			}
		}
	}
	// rank[base[s]+slot] is the canonical position of the pair in shard
	// s's slot, or -1 for a free or released slot, whose entries are not
	// exported.
	rank := make([]int32, base[len(tr.shards)])
	for i := range rank {
		rank[i] = -1
	}
	for i, r := range CanonicalRanks(keys) {
		rank[base[where[i]>>32]+int(uint32(where[i]))] = r
	}
	// Counting pass: next[r+1] is the number of entries of pair r, an upper
	// bound on its non-zero buckets. After the prefix sum next[r] is where
	// pair r's run starts, and the writing pass advances it.
	next := make([]int, len(keys)+1)
	for s, sh := range tr.shards {
		for _, l := range sh.wheel.lists {
			for _, e := range l {
				if r := rank[base[s]+int(e.slot)]; r >= 0 {
					next[r+1]++
				}
			}
		}
	}
	for r := 1; r <= len(keys); r++ {
		next[r] += next[r-1]
	}
	buf := make([]Bucket, next[len(keys)])
	start := make([]int, len(keys))
	copy(start, next)
	nb := int64(tr.cfg.Buckets)
	for s, sh := range tr.shards {
		w := &sh.wheel
		for p := int64(0); p < nb && w.set; p++ {
			pos := int32(p)
			for _, e := range w.lists[w.listOf(w.head-nb+1+p)] {
				r := rank[base[s]+int(e.slot)]
				if r < 0 {
					continue
				}
				if at := next[r]; at > start[r] && buf[at-1].Pos == pos {
					buf[at-1].Val += float64(e.n)
				} else {
					buf[at] = Bucket{Pos: pos, Val: float64(e.n)}
					next[r]++
				}
			}
		}
	}
	// A spill adds to the bucket of its slot's saturated entry, which the
	// writing pass has put in the pair's run.
	for s, sh := range tr.shards {
		w := &sh.wheel
		oldest := w.listOf(w.head - nb + 1)
		//enblogue:unordered each spill adds an integer below 2^53 to its own bucket
		for k, v := range w.spill {
			r := rank[base[s]+int(k.slot)]
			pos := int32((int64(k.list) - int64(oldest) + nb) % nb)
			for j := start[r]; j < next[r]; j++ {
				if buf[j].Pos == pos {
					buf[j].Val += float64(v)
				}
			}
		}
	}
	st := ShardedTrackerState{
		NowNano: tr.nowNano,
		Pairs:   make([]PairState, len(keys)),
	}
	for i, k := range keys {
		sh := tr.shards[where[i]>>32]
		r := rank[base[where[i]>>32]+int(uint32(where[i]))]
		st.Pairs[r] = PairState{Key: k, Window: PairWindow{
			Buckets: buf[start[r]:next[r]:next[r]],
			Head:    sh.wheel.head,
			HeadSet: sh.wheel.set,
			Total:   sh.wheel.count(int32(uint32(where[i]))),
		}}
	}
	return st
}

// RestoreState loads st into an empty tracker, assigning each pair to the
// shard its key hashes to under this tracker's shard count. Restoring into a
// tracker that has already observed documents is an error, and so is a
// window that PairWindow.Check refuses; buckets that have left the window
// at st's clock are not restored.
func (tr *ShardedTracker) RestoreState(st ShardedTrackerState) error {
	if tr.ActivePairs() != 0 || tr.nowNano != 0 {
		return errors.New("pairs: restore into a non-empty tracker")
	}
	head := st.NowNano / int64(tr.cfg.Resolution)
	for _, sh := range tr.shards {
		sh.wheel.advance(head)
	}
	n := len(tr.shards)
	nb := int64(tr.cfg.Buckets)
	for _, p := range st.Pairs {
		if p.Key == (Key{}) {
			return errors.New("pairs: restore of a zero pair key")
		}
		if err := p.Window.Check(tr.cfg.Buckets, tr.cfg.Resolution, st.NowNano); err != nil {
			return fmt.Errorf("pairs: restore of %s: %w", p.Key, err)
		}
		sh := tr.shards[p.Key.Shard(n)]
		if _, dup := sh.table.get(p.Key.packed); dup {
			return fmt.Errorf("pairs: duplicate pair %s in restore state", p.Key)
		}
		slot := sh.upsert(p.Key)
		for _, b := range p.Window.Buckets {
			sh.wheel.add(slot, p.Window.Head-nb+1+int64(b.Pos), uint64(b.Val))
		}
	}
	tr.nowNano = st.NowNano
	return nil
}
