package enblogue

// This file wires the durability layer into the public surface. The engine
// core cannot import internal/persist (persist sits above core, encoding
// core's exported state), so core exposes a construction hook and this
// package — which imports both — connects them: every engine built with a
// durability directory recovers and attaches persistence inside core.New.

import (
	"enblogue/internal/core"
	"enblogue/internal/persist"
)

func init() {
	core.SetDurabilityHook(persist.Attach)
}

// FsyncMode selects how aggressively the write-ahead log is flushed; see
// the mode constants.
type FsyncMode = core.FsyncMode

// WAL flush policies, selected with the Fsync durability option.
const (
	// FsyncIntervalMode syncs at most once per FsyncEvery period (default
	// one second): a process crash loses only the records of a batch that
	// has not yet returned, power loss at most one interval. The default.
	FsyncIntervalMode = core.FsyncInterval
	// FsyncAlwaysMode syncs once per WAL commit: before each ranking a
	// batch publishes and before the batch returns. A process crash or
	// power loss loses only the records of a batch that has not yet
	// returned, and no ranking was published from them.
	FsyncAlwaysMode = core.FsyncAlways
	// FsyncNeverMode leaves flushing entirely to the OS. A process crash
	// loses only the records of a batch that has not yet returned.
	FsyncNeverMode = core.FsyncNever
)

// DurabilityStats is a point-in-time view of an engine's persistence layer.
type DurabilityStats = core.DurabilityStats

// Snapshot forces a durable snapshot of the current engine state, rotating
// the WAL at the same instant. It returns core.ErrNoDurability when the
// engine was built without WithDurability.
func (e *Engine) Snapshot() error { return e.core.Snapshot() }

// DurabilityStats reports the persistence layer's state; ok is false when
// the engine was built without WithDurability.
func (e *Engine) DurabilityStats() (st DurabilityStats, ok bool) {
	return e.core.DurabilityStats()
}
