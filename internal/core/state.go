package core

import (
	"errors"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/tagstats"
)

// EngineState is the engine's full serializable state: everything that
// affects future rankings. It aggregates the canonical per-subsystem states
// (tags, pairs, detector, distributions — each sorted and clock-advanced by
// its own exporter), so two engines holding the same logical state export
// identical EngineStates regardless of shard count or internal slot layout.
// Rebuildable caches (tick scratch, ingest queue, broker subscriptions,
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
	Dist  *pairs.DistState // non-nil exactly in DistributionMode
	Det   shift.DetectorState

	Seeds []string // current seed set, best first
	Last  Ranking  // most recent published ranking
}

// exportStateLocked gathers the full engine state. Caller holds e.mu, which
// ingest holds across a whole batch, so no producer is mid-document: docs,
// tag statistics, pair counters, and the WAL position all agree.
//
//enblogue:requires engine
//enblogue:acquires rank
func (e *Engine) exportStateLocked() EngineState {
	st := EngineState{
		Docs:         e.docs.Load(),
		LastSeenNano: e.lastSeenNano.Load(),
		Tags:         e.tags.ExportState(),
		Pairs:        e.pairsTr.ExportState(),
		Det:          e.det.ExportState(),
		Seeds:        append([]string(nil), e.seeds.Seeds()...),
		Last:         e.CurrentRanking(),
	}
	if !e.nextTick.IsZero() {
		st.NextTickNano, st.NextTickSet = e.nextTick.UnixNano(), true
	}
	if !e.lastTick.IsZero() {
		st.LastTickNano, st.LastTickSet = e.lastTick.UnixNano(), true
	}
	if e.dist != nil {
		d := e.dist.ExportState()
		st.Dist = &d
	}
	return st
}

// SnapshotState exports the engine's full state and, while ingest is still
// quiesced, invokes rotate with the snapshot epoch (the exported document
// count) — the persistence layer rotates its WAL segment there, so the
// segment boundary aligns exactly with the snapshot: every document after
// the epoch is in the new segment and only there. Encoding and file I/O
// belong outside this call.
//
//enblogue:acquires engine
func (e *Engine) SnapshotState(rotate func(epoch int64) error) (EngineState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.exportStateLocked()
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
// enforces this with a config fingerprint — while shard count and ingest
// tuning are free to differ.
//
//enblogue:acquires engine
//enblogue:acquires rank
func (e *Engine) RestoreState(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.docs.Load() != 0 || e.lastSeenNano.Load() != 0 || !e.nextTick.IsZero() {
		return errors.New("core: restore into an engine that has consumed documents")
	}
	if (st.Dist != nil) != (e.dist != nil) {
		return errors.New("core: distribution-mode mismatch between snapshot and engine")
	}
	if err := e.tags.RestoreState(st.Tags); err != nil {
		return err
	}
	if err := e.pairsTr.RestoreState(st.Pairs); err != nil {
		return err
	}
	if st.Dist != nil {
		if err := e.dist.RestoreState(*st.Dist); err != nil {
			return err
		}
	}
	if err := e.det.RestoreState(st.Det); err != nil {
		return err
	}
	if len(st.Seeds) > 0 {
		// SeedSelector state is just the ordered tag set; ReselectFrom reads
		// only the Tag field.
		stats := make([]tagstats.TagStat, len(st.Seeds))
		for i, s := range st.Seeds {
			stats[i] = tagstats.TagStat{Tag: s}
		}
		e.seeds.ReselectFrom(stats)
	}
	e.docs.Store(st.Docs)
	e.lastSeenNano.Store(st.LastSeenNano)
	if st.NextTickSet {
		e.nextTick = time.Unix(0, st.NextTickNano).UTC()
	}
	if st.LastTickSet {
		e.lastTick = time.Unix(0, st.LastTickNano).UTC()
	}
	r := st.Last.Clone()
	e.rankMu.Lock()
	e.last = r
	e.rankMu.Unlock()
	return nil
}
