package shift

import (
	"errors"
	"fmt"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/window"
)

// This file is the shift detector's durability surface. Exports are
// canonical — pairs sorted by Key.Compare across all shards — and restores
// re-partition by the restoring Sharded's own shard count, so detector state
// snapshotted at one shard count restores into any other. The slot-hint
// cache (bySlot) and sweep deadline cache (keepUntilNano) are rebuildable
// and deliberately not part of the state: a restored detector repopulates
// them on first use with identical semantics.

// PairDetState is one pair's exported detector state.
type PairDetState struct {
	Key      pairs.Key
	Decay    window.DecayState
	SeenNano int64
	Pred     predict.State
}

// DetectorState is the full serializable state of a Sharded detector (or a
// single Detector, which is the one-shard case).
type DetectorState struct {
	Pairs       []PairDetState // sorted by Key.Compare
	CurTickNano int64
	TickCount   int64
}

// pred returns the forecaster of the live slab entry at position i.
func (d *Detector) pred(i int32) predict.Predictor {
	if d.useNaive {
		return &d.states[i].naive
	}
	return d.preds[i]
}

// RestorePair loads one pair's detector state, allocating its slab entry.
// The pair must not already have state.
func (d *Detector) RestorePair(k pairs.Key, dec window.DecayState, seenNano int64, pred predict.State) error {
	if k == (pairs.Key{}) {
		return errors.New("shift: restore of a zero pair key")
	}
	if _, exists := d.index[k]; exists {
		return fmt.Errorf("shift: duplicate pair %s in restore state", k)
	}
	st, i := d.alloc(k)
	st.decay.RestoreState(dec)
	st.seenNano = seenNano
	return predict.Restore(d.pred(i), pred)
}

// setClock overwrites the detector's evaluation-round clock.
func (d *Detector) setClock(curTickNano int64, tickCount int) {
	d.curTickNano = curTickNano
	d.tickCount = tickCount
}

// ExportState returns the sharded detector's full state with pairs sorted by
// Key.Compare. The round clock is taken as the maximum across shards; the
// engine keeps shard clocks in lockstep (BeginTick), so under engine use
// every shard agrees with the exported value. Every predictor history is
// written into one backing array, so the export allocates a fixed number
// of times whatever the pair count.
func (s *Sharded) ExportState() DetectorState {
	var st DetectorState
	st.CurTickNano = s.dets[0].curTickNano
	st.TickCount = int64(s.dets[0].tickCount)
	n := s.ActiveStates()
	keys := make([]pairs.Key, 0, n)
	where := make([]uint64, 0, n) // shard<<32 | slab position, parallel to keys
	hist := 0
	for di, d := range s.dets {
		st.CurTickNano = max(st.CurTickNano, d.curTickNano)
		st.TickCount = max(st.TickCount, int64(d.tickCount))
		for i := range d.states {
			if k := d.states[i].key; k != (pairs.Key{}) {
				keys = append(keys, k)
				where = append(where, uint64(di)<<32|uint64(i))
				hist += predict.HistoryLen(d.pred(int32(i)))
			}
		}
	}
	ring := make([]float64, hist)
	st.Pairs = make([]PairDetState, len(keys))
	for i, r := range pairs.CanonicalRanks(keys) {
		d, j := s.dets[where[i]>>32], int32(uint32(where[i]))
		e := &d.states[j]
		pred := predict.Export(d.pred(j), ring)
		ring = ring[len(pred.Ring):]
		st.Pairs[r] = PairDetState{Key: e.key, Decay: e.decay.ExportState(), SeenNano: e.seenNano, Pred: pred}
	}
	return st
}

// RestoreState loads st into an empty sharded detector, assigning each pair
// to the shard its key hashes to and setting every shard's round clock to
// the exported value (restoring the lockstep invariant).
func (s *Sharded) RestoreState(st DetectorState) error {
	if s.ActiveStates() != 0 {
		return errors.New("shift: restore into a non-empty detector")
	}
	n := len(s.dets)
	for _, p := range st.Pairs {
		d := s.dets[p.Key.Shard(n)]
		if err := d.RestorePair(p.Key, p.Decay, p.SeenNano, p.Pred); err != nil {
			return err
		}
	}
	for _, d := range s.dets {
		d.setClock(st.CurTickNano, int(st.TickCount))
	}
	return nil
}
