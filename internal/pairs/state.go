package pairs

import (
	"errors"
	"fmt"

	"enblogue/internal/window"
)

// This file is the pair trackers' durability surface. Exports are canonical:
// pairs are emitted sorted by Key.Compare (the rendered-string order, which
// does not depend on interned IDs or shard placement) with every counter
// advanced to the tracker clock first, so two trackers holding the same
// logical state — regardless of shard count, slot layout, or lazy-expiry
// position — export identical state. Restores re-partition by the restoring
// tracker's own shard count, so a snapshot taken at one shard count restores
// into any other.

// PairState is one tracked pair's exported window column.
type PairState struct {
	Key    Key
	Window window.SlotState
}

// ShardedTrackerState is the full serializable state of a ShardedTracker.
type ShardedTrackerState struct {
	Pairs   []PairState // sorted by Key.Compare
	NowNano int64
}

// ExportState returns the tracker's full state with pairs sorted by
// Key.Compare and every counter advanced to the tracker clock. Every window
// column is written into one backing array, so the export allocates a
// fixed number of times whatever the pair count.
func (tr *ShardedTracker) ExportState() ShardedTrackerState {
	n := tr.ActivePairs()
	keys := make([]Key, 0, n)
	where := make([]uint64, 0, n) // shard<<32 | slot, parallel to keys
	now := tr.now()
	for s, sh := range tr.shards {
		var abs int64
		if !now.IsZero() {
			abs = sh.arena.BucketIndex(now)
		}
		for slot, k := range sh.keys {
			if k == (Key{}) {
				continue
			}
			if !now.IsZero() {
				// Advance to the shared clock so exported heads agree across
				// slots and trackers — expiry is lazy, so this changes only
				// the representation, never any observable count.
				sh.arena.ValueAtAbs(int32(slot), abs)
			}
			keys = append(keys, k)
			where = append(where, uint64(s)<<32|uint64(slot))
		}
	}
	nb := tr.cfg.Buckets
	vals := make([]float64, len(keys)*nb)
	st := ShardedTrackerState{
		NowNano: tr.nowNano,
		Pairs:   make([]PairState, len(keys)),
	}
	// Columns are read in slot order, so consecutive slots share the
	// arena's cache lines, and each is written at its canonical position.
	for i, r := range CanonicalRanks(keys) {
		sh := tr.shards[where[i]>>32]
		st.Pairs[r] = PairState{Key: keys[i], Window: sh.arena.ExportSlot(int32(uint32(where[i])), vals[int(r)*nb:])}
	}
	return st
}

// RestoreState loads st into an empty tracker, assigning each pair to the
// shard its key hashes to under this tracker's shard count. Restoring into a
// tracker that has already observed documents is an error.
func (tr *ShardedTracker) RestoreState(st ShardedTrackerState) error {
	if tr.ActivePairs() != 0 || tr.nowNano != 0 {
		return errors.New("pairs: restore into a non-empty tracker")
	}
	n := len(tr.shards)
	for _, p := range st.Pairs {
		if p.Key == (Key{}) {
			return errors.New("pairs: restore of a zero pair key")
		}
		sh := tr.shards[p.Key.Shard(n)]
		if _, dup := sh.table.get(p.Key.packed); dup {
			return fmt.Errorf("pairs: duplicate pair %s in restore state", p.Key)
		}
		slot := tr.upsert(sh, p.Key)
		if err := sh.arena.RestoreSlot(slot, p.Window); err != nil {
			sh.drop(p.Key, slot)
			return err
		}
	}
	tr.nowNano = st.NowNano
	return nil
}
