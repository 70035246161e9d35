// Package lockgood is lockdiscipline's clean fixture: correct class
// declarations, a properly annotated *Locked function, ascending
// acquisition order, and a goroutine body that does not inherit locks.
package lockgood

import "sync"

// T carries a two-class lock hierarchy.
type T struct {
	//enblogue:lock outer 10
	mu sync.Mutex
	//enblogue:lock inner 20
	imu sync.Mutex
	n   int
}

// addLocked mutates under the caller's lock.
//
//enblogue:requires outer
func (t *T) addLocked() { t.n++ }

// Add takes the classes in declared order and meets addLocked's contract.
//
//enblogue:acquires outer
//enblogue:acquires inner
func (t *T) Add() {
	t.mu.Lock()
	t.addLocked()
	t.imu.Lock()
	t.imu.Unlock()
	t.mu.Unlock()
}

// DeferredUnlock holds via defer for the rest of the body.
//
//enblogue:acquires outer
func (t *T) DeferredUnlock() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked()
}

// Spawn's goroutine body starts with an empty held-set and takes its own
// lock; holding outer in the parent does not leak in.
//
//enblogue:acquires outer
func (t *T) Spawn() {
	t.mu.Lock()
	t.addLocked()
	t.mu.Unlock()
	go func() {
		t.mu.Lock()
		t.addLocked()
		t.mu.Unlock()
	}()
}

// B mirrors the broker/subscription-index nesting introduced with the
// inverted dispatch index: registration holds the broker's subscription
// lock, then the index lock, in ascending order — while the dispatcher
// takes the index lock (candidate collection) and the broker lock
// (channel sends) as separate, non-overlapping acquisitions.
type B struct {
	//enblogue:lock broker 30
	mu sync.Mutex
	//enblogue:lock subidx 33
	imu  sync.Mutex
	subs int
}

// Register indexes a new subscription under both locks, ascending.
//
//enblogue:acquires broker
//enblogue:acquires subidx
func (b *B) Register() {
	b.mu.Lock()
	b.imu.Lock()
	b.subs++
	b.imu.Unlock()
	b.mu.Unlock()
}

// Dispatch collects under the index lock, releases it, then sends under
// the broker lock: descending class order is fine when the holds never
// overlap.
//
//enblogue:acquires subidx
//enblogue:acquires broker
func (b *B) Dispatch() {
	b.imu.Lock()
	_ = b.subs
	b.imu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// P is a durability-shaped hierarchy with a reader/writer gate in it: the
// store's snapshot mutex is outermost in the whole process (class 5), an
// ingest gate (persist 7; the engine itself no longer needs one) and the
// bookkeeping lock (engine 10) nest inside it, and the WAL lock (wal 15)
// is innermost — rotation happens inside the snapshot gate. The snapshot writer descends
// into the engine; nothing under an engine lock ever reaches back up.
type P struct {
	//enblogue:lock persistSnap 5
	snapMu sync.Mutex
	//enblogue:lock persist 7
	gate sync.RWMutex
	//enblogue:lock engine 10
	mu sync.Mutex
	//enblogue:lock wal 15
	walMu sync.Mutex
	docs  int
}

// Snapshot is the durable-snapshot shape: serialize snapshots, quiesce
// ingest, export under the engine lock, rotate the WAL — all ascending.
//
//enblogue:acquires persistSnap
//enblogue:acquires persist
//enblogue:acquires engine
//enblogue:acquires wal
func (p *P) Snapshot() {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	p.gate.Lock()
	defer p.gate.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.docs
	p.walMu.Lock()
	p.docs = 0
	p.walMu.Unlock()
}

// Record is the ingest shape: the WAL append nests inside the engine
// locks, never the other way around.
//
//enblogue:acquires persist
//enblogue:acquires engine
//enblogue:acquires wal
func (p *P) Record() {
	p.gate.RLock()
	defer p.gate.RUnlock()
	p.mu.Lock()
	p.docs++
	p.walMu.Lock()
	p.walMu.Unlock()
	p.mu.Unlock()
}

// M mirrors the tiered-memory hierarchy introduced with the exact/sketch
// tail: the sweep serializer (pairsSweep 40) is outermost, the tail's tier
// lock (tier 45) sits between it and the per-shard counter locks
// (pairsShard 50). Demotion runs sweep → tier with no shard lock held;
// promotion runs tier → shard, ascending.
type M struct {
	//enblogue:lock pairsSweep 40
	sweepMu sync.Mutex
	//enblogue:lock tier 45
	tmu sync.Mutex
	//enblogue:lock pairsShard 50
	mu   sync.Mutex
	tail int
}

// Demote is the eviction shape: victims are collected and dropped under
// the shard lock, the shard lock is released, then the tail absorbs them
// under the tier lock — sweep and tier never overlap a shard hold.
//
//enblogue:acquires pairsSweep
//enblogue:acquires pairsShard
//enblogue:acquires tier
func (m *M) Demote() {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	m.mu.Lock()
	_ = m.tail
	m.mu.Unlock()
	m.tmu.Lock()
	m.tail++
	m.tmu.Unlock()
}

// Promote is the readmission shape: candidates are read under the tier
// lock, released, then seeded into the exact tier under each shard lock —
// ascending class order even when the holds do overlap.
//
//enblogue:acquires tier
//enblogue:acquires pairsShard
func (m *M) Promote() {
	m.tmu.Lock()
	m.mu.Lock()
	m.tail--
	m.mu.Unlock()
	m.tmu.Unlock()
}
