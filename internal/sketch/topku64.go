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
//   - Entries live in an indexed binary min-heap on (Count, Key) — a strict
//     total order, since keys are distinct — with a key→position map, so
//     at capacity Add finds the victim at the root and restores the heap
//     in O(log k), and steady-state Add performs no allocations. The victim
//     is the (Count, Key) minimum, a function of the summary contents
//     alone, never of insertion history or map iteration order.
//   - Remove exists, because promotion pulls a key back into the exact tier
//     and must stop it from being re-promoted until it is demoted again.
type TopKU64 struct {
	k       int
	entries []EntryU64       // min-heap on (Count, Key)
	index   map[uint64]int32 // key → position in entries
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
		t.down(int(i))
		return
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, EntryU64{Key: key, Count: w})
		t.up(len(t.entries) - 1)
		return
	}
	old := t.entries[0]
	delete(t.index, old.Key)
	t.entries[0] = EntryU64{Key: key, Count: old.Count + w, Error: old.Count}
	t.down(0)
}

// Remove drops key from the summary and reports whether it was tracked.
func (t *TopKU64) Remove(key uint64) bool {
	i, ok := t.index[key]
	if !ok {
		return false
	}
	delete(t.index, key)
	last := len(t.entries) - 1
	if int(i) == last {
		t.entries = t.entries[:last]
		return true
	}
	// Move the last entry into the hole, then restore the heap around it.
	t.entries[i] = t.entries[last]
	t.entries = t.entries[:last]
	t.down(int(i))
	t.up(int(i))
	return true
}

// entryLess is the heap order: (Count, Key) ascending.
func entryLess(a, b *EntryU64) bool {
	return a.Count < b.Count || (a.Count == b.Count && a.Key < b.Key)
}

// less reports whether the entry at heap position i orders before the one
// at j.
func (t *TopKU64) less(i, j int) bool { return entryLess(&t.entries[i], &t.entries[j]) }

// up moves the entry at position i towards the root until its parent
// orders before it, shifting the entries it passes down one level and
// re-indexing every entry it moves, itself included.
func (t *TopKU64) up(i int) {
	e := t.entries[i]
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(&e, &t.entries[p]) {
			break
		}
		t.entries[i] = t.entries[p]
		t.index[t.entries[i].Key] = int32(i)
		i = p
	}
	t.entries[i] = e
	t.index[e.Key] = int32(i)
}

// down moves the entry at position i away from the root until both
// children order after it — up's mirror image.
func (t *TopKU64) down(i int) {
	e := t.entries[i]
	n := len(t.entries)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && t.less(r, c) {
			c = r
		}
		if !entryLess(&t.entries[c], &e) {
			break
		}
		t.entries[i] = t.entries[c]
		t.index[t.entries[i].Key] = int32(i)
		i = c
	}
	t.entries[i] = e
	t.index[e.Key] = int32(i)
}

// Contains reports whether key is tracked.
func (t *TopKU64) Contains(key uint64) bool {
	_, ok := t.index[key]
	return ok
}

// Len returns the number of tracked keys.
func (t *TopKU64) Len() int { return len(t.entries) }

// At returns the entry at heap position i, 0 ≤ i < Len(). Heap order is
// deterministic — a function of the sequence of Add and Remove calls —
// letting callers walk the summary without materialising a sorted copy.
func (t *TopKU64) At(i int) EntryU64 { return t.entries[i] }

// Reset empties the summary, retaining capacity.
func (t *TopKU64) Reset() {
	//enblogue:unordered per-key delete of every element leaves the map empty regardless of order
	for k := range t.index {
		delete(t.index, k)
	}
	t.entries = t.entries[:0]
}
