package tagstats

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"enblogue/internal/window"
)

// This file is the tag tracker's durability surface. Exports are canonical —
// tags sorted lexicographically, every counter advanced to the tracker
// clock — so two trackers holding the same logical state export identical
// state regardless of slot layout or lazy-expiry position. The revIDs cache
// is rebuildable (TopAppend re-resolves on demand) and deliberately not part
// of the state.

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
		Tags:    make([]TagState, 0, len(tr.slots)),
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
	for slot, tag := range tr.revTags {
		if tag == "" {
			continue
		}
		if st.NowSet {
			tr.arena.ValueAtAbs(int32(slot), abs)
		}
		st.Tags = append(st.Tags, TagState{Tag: tag, Window: tr.arena.ExportSlot(int32(slot))})
	}
	sort.Slice(st.Tags, func(i, j int) bool { return st.Tags[i].Tag < st.Tags[j].Tag })
	return st
}

// RestoreState loads st into an empty tracker (fresh from NewTracker, same
// configured window as the exporter).
func (tr *Tracker) RestoreState(st TrackerState) error {
	if len(tr.slots) != 0 || tr.sinceGC != 0 || !tr.now.IsZero() {
		return errors.New("tagstats: restore into a non-empty tracker")
	}
	if err := tr.docs.RestoreSlot(docSlot, st.Docs); err != nil {
		return err
	}
	for _, ts := range st.Tags {
		if ts.Tag == "" {
			return errors.New("tagstats: restore of an empty tag")
		}
		if _, dup := tr.slots[ts.Tag]; dup {
			return fmt.Errorf("tagstats: duplicate tag %q in restore state", ts.Tag)
		}
		slot := tr.arena.Alloc()
		if err := tr.arena.RestoreSlot(slot, ts.Window); err != nil {
			tr.arena.Release(slot)
			return err
		}
		tr.slots[ts.Tag] = slot
		for int(slot) >= len(tr.revTags) {
			tr.revTags = append(tr.revTags, "")
			tr.revIDs = append(tr.revIDs, NoID)
		}
		tr.revTags[slot] = ts.Tag
		tr.revIDs[slot] = NoID
	}
	if st.NowSet {
		tr.now = time.Unix(0, st.NowNano).UTC()
	}
	tr.sinceGC = int(st.SinceGC)
	return nil
}
