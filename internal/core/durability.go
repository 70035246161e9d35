package core

import (
	"errors"
	"time"

	"enblogue/internal/stream"
)

// FsyncMode selects how aggressively the write-ahead log is flushed to
// stable storage.
type FsyncMode int

const (
	// FsyncInterval syncs the WAL at most once per configured interval
	// (default one second). A process crash loses only the records of a
	// batch that has not yet returned — committed writes survive in the OS
	// page cache — and a power loss loses at most one interval of
	// documents. The default.
	FsyncInterval FsyncMode = iota
	// FsyncAlways syncs once per commit: no document of a batch that has
	// returned is lost even to power failure. A batch commits once before
	// each ranking it publishes and once before it returns, and a process
	// crash loses only the records of a batch that has not yet returned,
	// from which no ranking was published.
	FsyncAlways
	// FsyncNever never syncs explicitly, leaving flushing entirely to the
	// OS. A process crash loses only the records of a batch that has not
	// yet returned; power loss may lose any unflushed tail.
	FsyncNever
)

// DurabilityConfig enables and tunes the persistence layer. The zero Dir
// disables durability entirely. All fields are scalars, keeping Config
// comparable.
type DurabilityConfig struct {
	// Dir is the data directory for snapshots and WAL segments. Empty
	// disables durability.
	Dir string
	// SnapshotEvery is the background snapshot period (wall clock). Zero
	// means one minute; negative disables the ticker (snapshots then happen
	// only via Engine.Snapshot).
	SnapshotEvery time.Duration
	// Fsync selects the WAL flush policy.
	Fsync FsyncMode
	// FsyncEvery is the FsyncInterval period. Zero means one second.
	FsyncEvery time.Duration
	// KeepSnapshots is how many snapshot generations to retain (older ones
	// and their WAL segments are pruned after a successful snapshot). Zero
	// means 2.
	KeepSnapshots int
}

// DurabilityStats is a point-in-time view of the persistence layer, surfaced
// through /v1 stats.
type DurabilityStats struct {
	// SnapshotEpoch is the document count at the newest durable snapshot (0
	// before the first).
	SnapshotEpoch int64
	// WALSegments and WALBytes size the live write-ahead log.
	WALSegments int
	WALBytes    int64
	// LastSnapshotAt is the wall-clock completion time of the newest
	// snapshot (zero before the first).
	LastSnapshotAt time.Time
	// LastErr is the most recent background persistence error ("" when
	// healthy): WAL append or snapshot failures degrade durability but never
	// stop the engine.
	LastErr string
}

// WALRecorder receives the engine's inputs in the order the machine
// accepts them, under the engine bookkeeping lock: every ingested document,
// and every forced tick (Tick, Flush) the machine's guard accepts.
// Event-driven ticks follow from the documents and are not recorded.
// Implementations must be cheap and must not call back into the engine.
//
// Records are group-committed: the engine calls Commit before it publishes
// a ranking and before ConsumeBatch returns, so no ranking goes out ahead
// of the log and a returned batch is logged.
type WALRecorder interface {
	// RecordDoc records one document. seq is its 1-based position in the
	// stream (DocsProcessed after counting it). The record may stay
	// pending until the next Commit.
	RecordDoc(seq int64, it *stream.Item)
	// RecordTick records a forced tick at t and commits. seq is the number
	// of documents consumed before it.
	RecordTick(seq int64, t time.Time)
	// Commit writes every pending record to the log.
	Commit()
}

// Durability is the engine's handle on its persistence layer.
type Durability interface {
	// Snapshot forces a snapshot now.
	Snapshot() error
	// Stats reports the current persistence state.
	Stats() DurabilityStats
	// Close stops background work and syncs the WAL. Idempotent.
	Close() error
}

// durabilityHook is installed by the enblogue package (which owns the
// internal/persist wiring) and invoked at the end of New for engines
// configured with a durability directory: it recovers prior state into the
// fresh engine and attaches the WAL recorder. core cannot import persist
// directly — persist sits above core — so the dependency is inverted
// through this hook.
var durabilityHook func(*Engine) (WALRecorder, Durability, error)

// SetDurabilityHook installs the persistence constructor invoked by New.
// Call once, from package init, before any engine is built.
func SetDurabilityHook(fn func(*Engine) (WALRecorder, Durability, error)) {
	durabilityHook = fn
}

// attachDurability runs the durability hook for a newly built engine. Any
// error is deferred: the engine starts fresh and surfaces the failure
// through DurabilityStats.LastErr if the hook returned a Durability handle,
// or through a panic when recovery could not even degrade gracefully.
func (e *Engine) attachDurability() {
	if e.cfg.Durability.Dir == "" || durabilityHook == nil {
		return
	}
	w, d, err := durabilityHook(e)
	if err != nil {
		// The hook contract is graceful degradation: unreadable prior state
		// comes back as (recorder, durability, nil) with LastErr set. An
		// error here means the data directory itself is unusable (cannot
		// create, cannot open a WAL segment) — misconfiguration worth
		// failing loudly over rather than silently running non-durable.
		panic("core: durability setup failed: " + err.Error())
	}
	e.wal, e.dur = w, d
	if w != nil {
		e.m.logDoc = w.RecordDoc
	}
}

// ErrNoDurability is returned by Snapshot on engines built without a
// durability directory.
var ErrNoDurability = errors.New("core: durability not enabled")

// Snapshot forces a durable snapshot of the current engine state. It blocks
// ingest only for the in-memory state export; encoding and file I/O happen
// outside all engine locks.
func (e *Engine) Snapshot() error {
	if e.dur == nil {
		return ErrNoDurability
	}
	return e.dur.Snapshot()
}

// DurabilityStats reports the persistence layer's state; ok is false when
// durability is not enabled.
func (e *Engine) DurabilityStats() (st DurabilityStats, ok bool) {
	if e.dur == nil {
		return DurabilityStats{}, false
	}
	return e.dur.Stats(), true
}
