// Package lockbad is lockdiscipline's violating fixture: each marked line
// must produce exactly the diagnostic its want regexp describes.
package lockbad

import "sync"

// T mirrors lockgood's hierarchy.
type T struct {
	//enblogue:lock outer 10
	mu sync.Mutex
	//enblogue:lock inner 20
	imu sync.Mutex
	n   int
}

// addLocked follows the naming convention but declares nothing.
func (t *T) addLocked() { t.n++ } // want `addLocked follows the \*Locked naming convention but lacks an //enblogue:requires`

// subLocked declares its contract; Caller below breaks it.
//
//enblogue:requires outer
func (t *T) subLocked() { t.n-- }

// Reenter acquires a class its callers may hold.
//
//enblogue:acquires outer
func (t *T) Reenter() {
	t.mu.Lock()
	t.mu.Unlock()
}

// Caller invokes a requires-annotated function with nothing held.
func (t *T) Caller() {
	t.subLocked() // want `call to subLocked requires lock class "outer", which is not held here`
}

// Inverted acquires outer while holding inner: the order inversion.
func (t *T) Inverted() {
	t.imu.Lock()
	t.mu.Lock() // want `lock order violation: acquiring "outer" \(order 10\) while holding "inner" \(order 20\)`
	t.mu.Unlock()
	t.imu.Unlock()
}

// Twice re-acquires a held class directly.
func (t *T) Twice() {
	t.mu.Lock()
	t.mu.Lock() // want `acquiring lock class "outer" while already holding it: self-deadlock`
	t.mu.Unlock()
	t.mu.Unlock()
}

// ReenterViaCallee re-acquires a held class through an annotated callee.
func (t *T) ReenterViaCallee() {
	t.mu.Lock()
	t.Reenter() // want `call to Reenter acquires lock class "outer", which the caller already holds: self-deadlock`
	t.mu.Unlock()
}

// B mirrors the broker/subscription-index hierarchy.
type B struct {
	//enblogue:lock broker 30
	mu sync.Mutex
	//enblogue:lock subidx 33
	imu sync.Mutex
}

// SendWhileCollecting acquires the broker's subscription lock while still
// holding the index lock: the inversion the dispatch path must never
// commit (deliver collects under subidx, releases, then sends under
// broker).
func (b *B) SendWhileCollecting() {
	b.imu.Lock()
	b.mu.Lock() // want `lock order violation: acquiring "broker" \(order 30\) while holding "subidx" \(order 33\)`
	b.mu.Unlock()
	b.imu.Unlock()
}

// P is lockgood's durability-shaped hierarchy (persistSnap 5 < persist 7
// < engine 10 < wal 15).
type P struct {
	//enblogue:lock persistSnap 5
	snapMu sync.Mutex
	//enblogue:lock persist 7
	gate sync.RWMutex
	//enblogue:lock engine 10
	mu sync.Mutex
	//enblogue:lock wal 15
	walMu sync.Mutex
}

// SnapshotUnderEngine starts a snapshot while holding the engine lock:
// the nesting the durability layer must never commit — a concurrent
// Snapshot holding snapMu and waiting on the engine would deadlock.
func (p *P) SnapshotUnderEngine() {
	p.mu.Lock()
	p.snapMu.Lock() // want `lock order violation: acquiring "persistSnap" \(order 5\) while holding "engine" \(order 10\)`
	p.snapMu.Unlock()
	p.mu.Unlock()
}

// GateUnderEngine quiesces ingest from under the engine bookkeeping lock:
// same inversion one layer down (Consume holds the gate, then the engine
// lock; a writer parked on the gate inside the engine lock never wakes).
func (p *P) GateUnderEngine() {
	p.mu.Lock()
	p.gate.Lock() // want `lock order violation: acquiring "persist" \(order 7\) while holding "engine" \(order 10\)`
	p.gate.Unlock()
	p.mu.Unlock()
}

// EngineUnderWAL calls back into the engine from the WAL lock — the
// recorder-must-not-reenter-the-engine contract.
func (p *P) EngineUnderWAL() {
	p.walMu.Lock()
	p.mu.Lock() // want `lock order violation: acquiring "engine" \(order 10\) while holding "wal" \(order 15\)`
	p.mu.Unlock()
	p.walMu.Unlock()
}

// M mirrors the tiered-memory hierarchy (pairsSweep 40 < tier 45 <
// pairsShard 50).
type M struct {
	//enblogue:lock pairsSweep 40
	sweepMu sync.Mutex
	//enblogue:lock tier 45
	tmu sync.Mutex
	//enblogue:lock pairsShard 50
	mu sync.Mutex
}

// DemoteUnderShard feeds the tail while still holding a shard lock: the
// inversion-free but deadlock-prone shape sweepLocked must never commit —
// the tier lock is class 45, below the shard's 50.
func (m *M) DemoteUnderShard() {
	m.mu.Lock()
	m.tmu.Lock() // want `lock order violation: acquiring "tier" \(order 45\) while holding "pairsShard" \(order 50\)`
	m.tmu.Unlock()
	m.mu.Unlock()
}

// SweepUnderTier starts a sweep from inside the tail: promotion must read
// candidates and release the tier lock before ever reaching the sweep
// serializer.
func (m *M) SweepUnderTier() {
	m.tmu.Lock()
	m.sweepMu.Lock() // want `lock order violation: acquiring "pairsSweep" \(order 40\) while holding "tier" \(order 45\)`
	m.sweepMu.Unlock()
	m.tmu.Unlock()
}
