package sketch

import (
	"fmt"
)

// EntryU64 is a heavy-hitter candidate from a TopKU64 summary.
type EntryU64 struct {
	Key   uint64
	Count uint64 // estimated count (upper bound)
	Error uint64 // maximum overestimate of Count
}

// TopKU64 is a weighted Space-Saving summary (Metwally et al.) over
// already-interned 64-bit keys — the tail tier's heavy-hitter set of packed
// pairs.Keys. Three properties matter on the demotion path:
//
//   - Add takes a weight, because a demoted pair arrives carrying its whole
//     windowed count, not one occurrence at a time.
//   - Entries live in a dense slice indexed by a key→slot map, so steady
//     state Add performs no allocations and the min scan walks the slice
//     in slot order — the victim is a deterministic function of the
//     summary contents, never of map iteration order.
//   - Remove exists, because promotion pulls a key back into the exact tier
//     and must stop it from being re-promoted until it is demoted again.
type TopKU64 struct {
	k       int
	entries []EntryU64
	index   map[uint64]int32 // key → slot in entries
}

// NewTopKU64 returns a summary with capacity k. It panics if k < 1.
func NewTopKU64(k int) *TopKU64 {
	if k < 1 {
		panic(fmt.Sprintf("sketch: TopKU64 capacity %d < 1", k))
	}
	return &TopKU64{
		k:       k,
		entries: make([]EntryU64, 0, k),
		index:   make(map[uint64]int32, k),
	}
}

// Add records weight w of key. At capacity it evicts the minimum-count
// entry — ties broken on the key — and the newcomer inherits the victim's
// count as its error bound, so counts remain upper bounds.
//
//enblogue:hotpath
func (t *TopKU64) Add(key uint64, w uint64) {
	if i, ok := t.index[key]; ok {
		t.entries[i].Count += w
		return
	}
	if len(t.entries) < t.k {
		t.index[key] = int32(len(t.entries))
		t.entries = append(t.entries, EntryU64{Key: key, Count: w})
		return
	}
	m := 0
	for i := 1; i < len(t.entries); i++ {
		e, min := &t.entries[i], &t.entries[m]
		if e.Count < min.Count || (e.Count == min.Count && e.Key < min.Key) {
			m = i
		}
	}
	old := t.entries[m]
	delete(t.index, old.Key)
	t.entries[m] = EntryU64{Key: key, Count: old.Count + w, Error: old.Count}
	t.index[key] = int32(m)
}

// Remove drops key from the summary (slot recycled via swap-remove) and
// reports whether it was tracked.
func (t *TopKU64) Remove(key uint64) bool {
	i, ok := t.index[key]
	if !ok {
		return false
	}
	last := int32(len(t.entries) - 1)
	if i != last {
		t.entries[i] = t.entries[last]
		t.index[t.entries[i].Key] = i
	}
	t.entries = t.entries[:last]
	delete(t.index, key)
	return true
}

// Contains reports whether key is tracked.
func (t *TopKU64) Contains(key uint64) bool {
	_, ok := t.index[key]
	return ok
}

// Len returns the number of tracked keys.
func (t *TopKU64) Len() int { return len(t.entries) }

// At returns the entry in slot i, 0 ≤ i < Len(). Slot order is
// deterministic (insertion order with swap-remove recycling), letting
// callers walk the summary without materialising a sorted copy.
func (t *TopKU64) At(i int) EntryU64 { return t.entries[i] }

// Reset empties the summary, retaining capacity.
func (t *TopKU64) Reset() {
	//enblogue:unordered per-key delete of every element leaves the map empty regardless of order
	for k := range t.index {
		delete(t.index, k)
	}
	t.entries = t.entries[:0]
}
