package tagstats

import (
	"errors"
	"fmt"
	"sort"
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
	SinceGC int64
}

// ExportState returns the tracker's full state with tags sorted and every
// counter advanced to the tracker clock.
func (tr *Tracker) ExportState() TrackerState {
	st := TrackerState{
		NowNano: tr.now.UnixNano(),
		NowSet:  !tr.now.IsZero(),
		SinceGC: int64(tr.sinceGC),
		Tags:    make([]TagState, 0, tr.active),
	}
	if !st.NowSet {
		st.NowNano = 0
	} else {
		// Advance to the shared clock so exported heads agree across slots —
		// expiry is lazy, so this changes only the representation.
		tr.docs.ValueAt(docSlot, tr.now)
	}
	st.Docs = tr.docs.ExportSlot(docSlot)
	var abs int64
	if st.NowSet {
		abs = tr.arena.BucketIndex(tr.now)
	}
	for slot, idp := range tr.ids {
		if idp == 0 {
			continue
		}
		if st.NowSet {
			tr.arena.ValueAtAbs(int32(slot), abs)
		}
		st.Tags = append(st.Tags, TagState{Tag: intern.Lookup(idp - 1), Window: tr.arena.ExportSlot(int32(slot))})
	}
	sort.Slice(st.Tags, func(i, j int) bool { return st.Tags[i].Tag < st.Tags[j].Tag })
	return st
}

// RestoreState loads st into an empty tracker (fresh from NewTracker, same
// configured window as the exporter).
func (tr *Tracker) RestoreState(st TrackerState) error {
	if tr.active != 0 || tr.sinceGC != 0 || !tr.now.IsZero() {
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
	tr.sinceGC = int(st.SinceGC)
	return nil
}
