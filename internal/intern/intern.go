// Package intern implements a process-wide append-only symbol table that
// maps tag strings to dense uint32 IDs and back. The engine's hot path
// (candidate-pair generation, co-occurrence counting, shift detection) works
// entirely in IDs — a pair key becomes one packed uint64 instead of two
// heap-allocated strings — and recovers the strings only at the boundaries
// where rankings are rendered or eviction ties are broken.
//
// The table is lock-amortised: lookups of already-interned strings read an
// immutable snapshot map through an atomic pointer and take no lock at all.
// Only a miss takes the mutex, appends to a small pending map, and — once
// the pending map has grown past a fraction of the snapshot — promotes
// pending entries into a fresh snapshot. Promotions copy the map O(n) but
// are geometrically spaced, so the amortised cost per distinct string is
// O(1) and a stream that has seen its vocabulary runs entirely lock-free.
//
// IDs are assigned densely in first-intern order and are never reused or
// freed: the table's memory grows with the distinct-tag vocabulary of the
// whole stream, not with the sliding window. That is a deliberate trade —
// eviction would invalidate packed keys — and it is the one structure the
// MaxPairs/window budgets do not bound, so a deployment ingesting
// unbounded one-off tags (spam hashtags, raw IDs) should normalise or
// drop such tags upstream before they reach the engine.
package intern

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Table is one symbol table. The zero value is ready to use. Safe for
// concurrent use.
type Table struct {
	// snapshot is the immutable read view: a map from string to ID plus the
	// id→string slice prefix it covers. Reads load it atomically and never
	// lock. Writers replace it wholesale under mu.
	snapshot atomic.Pointer[snapshot]

	// mu guards pending and byID writes; it is the innermost lock in the
	// process — Intern is called from the pair trackers' locked paths.
	//
	//enblogue:lock intern 90
	mu      sync.Mutex
	pending map[string]uint32 // interned since the last promotion
	byID    []string          // authoritative id → string, append-only
}

// snapshot is an immutable (map, slice-header) pair. The byID backing array
// is shared with the authoritative slice: appends past len are invisible to
// holders of this header, and promotion republishes a longer header only
// after the new elements are written (the atomic store orders them).
type snapshot struct {
	ids  map[string]uint32
	byID []string
}

var emptySnapshot = &snapshot{ids: map[string]uint32{}}

func (t *Table) load() *snapshot {
	if s := t.snapshot.Load(); s != nil {
		return s
	}
	return emptySnapshot
}

// Intern returns the dense ID of s, assigning the next free ID on first
// sight. The fast path — s already promoted into the snapshot — is
// lock-free.
func (t *Table) Intern(s string) uint32 {
	snap := t.load()
	if id, ok := snap.ids[s]; ok {
		return id
	}
	return t.internSlow(s)
}

// Find returns the ID of s if it has already been interned, without
// assigning one. Read paths that merely index by ID (the engine's tick-time
// tag-count snapshot) use Find so that ID assignment happens only on the
// ingest path, in first-seen stream order — the property that makes shard
// assignment reproducible across replays of the same stream.
//
//enblogue:acquires intern
func (t *Table) Find(s string) (uint32, bool) {
	if id, ok := t.load().ids[s]; ok {
		return id, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.pending[s]
	return id, ok
}

// internSlow handles snapshot misses: recently interned strings still in
// pending, and genuinely new strings.
//
//enblogue:acquires intern
func (t *Table) internSlow(s string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the lock: a racing Intern may have promoted or added s.
	if id, ok := t.load().ids[s]; ok {
		return id
	}
	if id, ok := t.pending[s]; ok {
		return id
	}
	if t.pending == nil {
		t.pending = make(map[string]uint32)
	}
	// The table keeps s for the life of the process, so it keeps its own
	// copy: a caller's string may be a slice of a far larger buffer, such
	// as a WAL line.
	s = strings.Clone(s)
	id := uint32(len(t.byID))
	t.byID = append(t.byID, s)
	t.pending[s] = id
	// Promote once pending outgrows a quarter of the snapshot (plus a floor
	// so tiny tables don't churn): copying is O(n) but geometrically spaced,
	// amortised O(1) per insert.
	if snap := t.load(); len(t.pending) >= len(snap.ids)/4+16 {
		ids := make(map[string]uint32, len(snap.ids)+len(t.pending))
		//enblogue:unordered map-to-map copy; inserting (string, id) pairs into the new snapshot is commutative
		for k, v := range snap.ids {
			ids[k] = v
		}
		//enblogue:unordered map-to-map copy of disjoint pending entries; insertion order is immaterial
		for k, v := range t.pending {
			ids[k] = v
		}
		t.snapshot.Store(&snapshot{ids: ids, byID: t.byID})
		t.pending = make(map[string]uint32)
	}
	return id
}

// Lookup returns the string with the given ID, or "" when the ID has never
// been assigned. Looking up an ID that was just interned is always valid,
// from any goroutine that learned the ID.
//
//enblogue:acquires intern
func (t *Table) Lookup(id uint32) string {
	if s := t.load(); int(id) < len(s.byID) {
		return s.byID[id]
	}
	// The ID may be newer than the snapshot (still pending): consult the
	// authoritative slice under the lock.
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.byID) {
		return t.byID[id]
	}
	return ""
}

// Len returns the number of interned strings.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// Tags is the process-wide table used for tag symbols. pairs.Key packs two
// of its IDs into one uint64; keeping the table global lets a bare Key
// render itself without carrying a table pointer.
var Tags Table

// Intern interns s in the process-wide tag table.
func Intern(s string) uint32 { return Tags.Intern(s) }

// Find looks s up in the process-wide tag table without interning it.
func Find(s string) (uint32, bool) { return Tags.Find(s) }

// Lookup resolves an ID from the process-wide tag table.
func Lookup(id uint32) string { return Tags.Lookup(id) }
