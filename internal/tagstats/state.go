package tagstats

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"enblogue/internal/intern"
	"enblogue/internal/window"
)

// This file is the tag tracker's durability surface. Exports are canonical —
// tags sorted lexicographically, every counter advanced to the tracker
// clock — so two trackers holding the same logical state export identical
// state regardless of slot layout, interned IDs or lazy-expiry position.

// TagState is one tracked tag's exported window column.
type TagState struct {
	Tag    string
	Window window.SlotState
}

// TrackerState is the full serializable state of a Tracker.
type TrackerState struct {
	Tags    []TagState       // sorted by Tag
	Docs    window.SlotState // the windowed document total
	NowNano int64
	NowSet  bool
}

// ExportState returns the tracker's full state with tags sorted and every
// counter advanced to the tracker clock. Every window column is written
// into one backing array, so the export allocates a fixed number of times
// whatever the tag count.
func (tr *Tracker) ExportState() TrackerState {
	st := TrackerState{
		NowNano: tr.now.UnixNano(),
		NowSet:  !tr.now.IsZero(),
	}
	if !st.NowSet {
		st.NowNano = 0
	} else {
		// Advance to the shared clock so exported heads agree across slots —
		// expiry is lazy, so this changes only the representation.
		tr.docs.ValueAt(docSlot, tr.now)
	}
	var abs int64
	if st.NowSet {
		abs = tr.arena.BucketIndex(tr.now)
	}
	type tagSlot struct {
		tag  string
		slot int32
	}
	live := make([]tagSlot, 0, tr.active)
	for slot, idp := range tr.ids {
		if idp == 0 {
			continue
		}
		if st.NowSet {
			tr.arena.ValueAtAbs(int32(slot), abs)
		}
		live = append(live, tagSlot{intern.Lookup(idp - 1), int32(slot)})
	}
	slices.SortFunc(live, func(a, b tagSlot) int { return strings.Compare(a.tag, b.tag) })
	nb := tr.cfg.Buckets
	vals := make([]float64, (len(live)+1)*nb)
	st.Docs = tr.docs.ExportSlot(docSlot, vals)
	st.Tags = make([]TagState, len(live))
	for i, ts := range live {
		st.Tags[i] = TagState{Tag: ts.tag, Window: tr.arena.ExportSlot(ts.slot, vals[(i+1)*nb:])}
	}
	return st
}

// RestoreState loads st into an empty tracker (fresh from NewTracker, same
// configured window as the exporter).
func (tr *Tracker) RestoreState(st TrackerState) error {
	if tr.active != 0 || !tr.now.IsZero() {
		return errors.New("tagstats: restore into a non-empty tracker")
	}
	if err := tr.docs.RestoreSlot(docSlot, st.Docs); err != nil {
		return err
	}
	for _, ts := range st.Tags {
		if ts.Tag == "" {
			return errors.New("tagstats: restore of an empty tag")
		}
		id := intern.Intern(ts.Tag)
		if int(id) < len(tr.slotOf) && tr.slotOf[id] != 0 {
			return fmt.Errorf("tagstats: duplicate tag %q in restore state", ts.Tag)
		}
		slot := tr.slot(id)
		if err := tr.arena.RestoreSlot(slot, ts.Window); err != nil {
			tr.release(slot)
			return err
		}
	}
	if st.NowSet {
		tr.now = time.Unix(0, st.NowNano).UTC()
	}
	return nil
}
