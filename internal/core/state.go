package core

import (
	"errors"
	"time"

	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/tagstats"
)

// EngineState is the engine's full serializable state: everything that
// affects future rankings. It aggregates the canonical per-subsystem states
// (tags, pairs, co-occurrence pairs, detector — each sorted and
// clock-advanced by its own exporter), so two engines holding the same
// logical state export identical EngineStates regardless of shard count or
// internal slot layout.
// Rebuildable caches (tick scratch, broker subscriptions,
// interned-ID assignments) are deliberately excluded; rankings are
// ID-independent, so a restored engine that re-interns tags in a different
// order still ranks bit-identically.
type EngineState struct {
	Docs         int64
	LastSeenNano int64
	NextTickNano int64
	NextTickSet  bool
	LastTickNano int64
	LastTickSet  bool

	Tags  tagstats.TrackerState
	Pairs pairs.ShardedTrackerState
	Co    *pairs.ShardedTrackerState // non-nil exactly in DistributionMode
	Det   shift.DetectorState

	Seeds []string // current seed set, best first
	Last  Ranking  // most recent published ranking
}

// exportState gathers the machine's full state; the shell adds the
// published ranking. The caller holds e.mu, which ingest holds across a
// whole batch, so no producer is mid-document: docs, tag statistics, pair
// counters, and the WAL position all agree.
func (m *machine) exportState() EngineState {
	st := EngineState{
		Docs:  m.docs,
		Tags:  m.tags.ExportState(),
		Pairs: m.pairsTr.ExportState(),
		Det:   m.det.ExportState(),
		Seeds: append([]string(nil), m.seeds.Seeds()...),
	}
	if !m.lastSeen.IsZero() {
		st.LastSeenNano = m.lastSeen.UnixNano()
	}
	if !m.nextTick.IsZero() {
		st.NextTickNano, st.NextTickSet = m.nextTick.UnixNano(), true
	}
	if !m.lastTick.IsZero() {
		st.LastTickNano, st.LastTickSet = m.lastTick.UnixNano(), true
	}
	if m.co != nil {
		co := m.co.ExportState()
		st.Co = &co
	}
	return st
}

// restoreState loads st into a machine that has consumed nothing.
func (m *machine) restoreState(st EngineState) error {
	if m.docs != 0 || !m.lastSeen.IsZero() || !m.nextTick.IsZero() {
		return errors.New("core: restore into an engine that has consumed documents")
	}
	if (st.Co != nil) != (m.co != nil) {
		return errors.New("core: distribution-mode mismatch between snapshot and engine")
	}
	if err := m.tags.RestoreState(st.Tags); err != nil {
		return err
	}
	if err := m.pairsTr.RestoreState(st.Pairs); err != nil {
		return err
	}
	if st.Co != nil {
		if err := m.co.RestoreState(*st.Co); err != nil {
			return err
		}
	}
	if err := m.det.RestoreState(st.Det); err != nil {
		return err
	}
	if len(st.Seeds) > 0 {
		// SeedSelector state is just the ordered tag set; ReselectFrom reads
		// only the Tag and ID fields.
		stats := make([]tagstats.TagStat, len(st.Seeds))
		for i, s := range st.Seeds {
			stats[i] = tagstats.TagStat{Tag: s, ID: intern.Intern(s)}
		}
		m.seeds.ReselectFrom(stats)
	}
	m.docs = st.Docs
	if st.LastSeenNano != 0 {
		m.lastSeen = time.Unix(0, st.LastSeenNano).UTC()
	}
	if st.NextTickSet {
		m.nextTick = time.Unix(0, st.NextTickNano).UTC()
	}
	if st.LastTickSet {
		m.lastTick = time.Unix(0, st.LastTickNano).UTC()
	}
	return nil
}

// SnapshotState exports the engine's full state and, while ingest is still
// quiesced, invokes rotate with the snapshot epoch (the exported document
// count) — the persistence layer rotates its WAL segment there, so the
// segment boundary aligns exactly with the snapshot: every input after
// the snapshot is in the new segment and only there. Encoding and file I/O
// belong outside this call.
//
//enblogue:acquires engine
func (e *Engine) SnapshotState(rotate func(epoch int64) error) (EngineState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.m.exportState()
	st.Last = e.CurrentRanking()
	if rotate != nil {
		if err := rotate(st.Docs); err != nil {
			return EngineState{}, err
		}
	}
	return st, nil
}

// RestoreState loads st into a freshly built engine that has consumed
// nothing. The engine must have the exporter's semantic configuration
// (window geometry, measure, predictor, ...) — the persistence layer
// enforces this with a config fingerprint — while the shard count is free
// to differ.
//
//enblogue:acquires engine
func (e *Engine) RestoreState(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.m.restoreState(st); err != nil {
		return err
	}
	r := st.Last.Clone()
	e.last.Store(&r)
	return nil
}
