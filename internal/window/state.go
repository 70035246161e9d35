package window

import "fmt"

// This file is the window package's durability surface: full-fidelity
// export/restore of every stateful primitive, used by internal/persist to
// build versioned engine snapshots. Exports are canonical — bucket series
// are emitted oldest-first, independent of the slab's physical layout — so
// two windows holding the same logical state serialize to the same bytes
// regardless of how they arrived there. Restores are exact inverses: a
// restored window is bit-identical in every observable value (and in every
// stored float, so incremental-rounding history round-trips).

// DecayState is the dynamic state of a Decay value; the half-life itself is
// configuration and travels separately (the restorer is constructed with it).
type DecayState struct {
	Value  float64
	AtNano int64
	Set    bool
}

// ExportState returns the decay's dynamic state.
func (d *Decay) ExportState() DecayState {
	return DecayState{Value: d.value, AtNano: d.atNano, Set: d.set}
}

// RestoreState overwrites the decay's dynamic state, keeping the configured
// half-life.
func (d *Decay) RestoreState(s DecayState) {
	d.value = s.Value
	d.atNano = s.AtNano
	d.set = s.Set
}

// SlotState is the full serializable state of one CounterArena slot: the
// per-bucket values oldest-first (index len-1 is the head bucket), the
// absolute head index, and the in-window total.
type SlotState struct {
	Vals    []float64
	Head    int64
	HeadSet bool
	Total   float64
}

// ExportSlot returns slot's column with buckets rotated to oldest-first
// order, written into dst[:Buckets()] — the returned Vals alias dst, so an
// export of many slots fills one backing array a column at a time. Callers
// wanting canonical output across slots should advance every slot to a
// shared clock first (ValueAtAbs), so all heads agree.
func (a *CounterArena) ExportSlot(slot int32, dst []float64) SlotState {
	vals := dst[:a.nbuckets:a.nbuckets]
	head := a.heads[slot]
	if head == headUnset {
		clear(vals)
		return SlotState{Vals: vals}
	}
	n := int64(a.nbuckets)
	for i := int64(0); i < n; i++ {
		vals[i] = a.buckets[int(mod(head-(n-1)+i, n))*a.stride+int(slot)]
	}
	return SlotState{Vals: vals, Head: head, HeadSet: true, Total: a.totals[slot]}
}

// RestoreSlot overwrites slot's column with s. The slot must be freshly
// issued by Alloc (its column zeroed); the arena must have the exporter's
// bucket count. A length mismatch is an error.
func (a *CounterArena) RestoreSlot(slot int32, s SlotState) error {
	if len(s.Vals) != a.nbuckets {
		return fmt.Errorf("window: restore slot with %d buckets into a %d-bucket arena",
			len(s.Vals), a.nbuckets)
	}
	a.clearSlot(slot)
	if !s.HeadSet {
		a.heads[slot] = headUnset
		a.totals[slot] = 0
		return nil
	}
	a.heads[slot] = s.Head
	a.totals[slot] = s.Total
	n := int64(a.nbuckets)
	for i := int64(0); i < n; i++ {
		if v := s.Vals[i]; v != 0 {
			a.buckets[int(mod(s.Head-(n-1)+i, n))*a.stride+int(slot)] = v
		}
	}
	return nil
}
