package pairs

import "math/bits"

// slotTable maps packed pair keys to arena slots for one tracker shard: one
// open-addressed array of (key, slot) entries with linear probing. A zero
// key marks an empty entry — a valid Key is never zero — and deletion
// shifts the rest of the probe run back into the hole, so there are no
// tombstones and a lookup stops at the first empty entry. A hit costs one
// hash and, at the table's load of at most 3/4, usually one cache line.
//
// The table only answers "which slot holds this key". Everything ordered —
// snapshots, sweeps, exports — walks the shard's slot-ordered key index, so
// no result depends on where an entry sits here.
type slotTable struct {
	entries []slotEntry // length a power of two, or nil while empty
	n       int         // occupied entries
	shift   uint        // 64 − log2(len(entries)): home is the hash's top bits
}

type slotEntry struct {
	key  uint64
	slot int32
}

// minSlotTable is the smallest non-empty table.
const minSlotTable = 8

// home returns the entry index key's probe run starts at. It takes the
// hash's top bits: Key.Shard takes the shard from the same hash modulo the
// shard count, so one shard's keys share their low bits and only the top
// bits spread them.
func (t *slotTable) home(key uint64) int { return int(mix64(key) >> t.shift) }

// get returns key's slot and whether key is present.
func (t *slotTable) get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.entries) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.key == key {
			return e.slot, true
		}
		if e.key == 0 {
			return 0, false
		}
	}
}

// ref returns a pointer to key's slot, inserting key with slot 0 when it is
// absent; present reports which. The pointer is valid until the next ref.
func (t *slotTable) ref(key uint64) (slot *int32, present bool) {
	if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	mask := len(t.entries) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.key == key {
			return &e.slot, true
		}
		if e.key == 0 {
			e.key = key
			t.n++
			return &e.slot, false
		}
	}
}

// del removes key, if present, by backward shift: each later entry of the
// probe run whose home does not lie cyclically in (hole, entry] moves into
// the hole, which then moves to where that entry was.
func (t *slotTable) del(key uint64) {
	if t.n == 0 {
		return
	}
	mask := len(t.entries) - 1
	i := t.home(key)
	for t.entries[i].key != key {
		if t.entries[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.entries[j].key != 0; j = (j + 1) & mask {
		h := t.home(t.entries[j].key)
		stays := i < h && h <= j // no wrap between hole and entry
		if j < i {
			stays = i < h || h <= j // the run wrapped past the end
		}
		if !stays {
			t.entries[i] = t.entries[j]
			i = j
		}
	}
	t.entries[i] = slotEntry{}
	t.n--
}

// grow doubles the table and re-inserts every entry.
func (t *slotTable) grow() {
	old := t.entries
	size := max(minSlotTable, 2*len(old))
	t.entries = make([]slotEntry, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := t.home(e.key)
		for t.entries[i].key != 0 {
			i = (i + 1) & mask
		}
		t.entries[i] = e
	}
}
