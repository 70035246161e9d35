package pairs

import (
	"fmt"
	"math"
	"time"
)

// entry is one record of a bucket's touch list: count events of one slot's
// pair in that bucket. A slot may hold several entries in one bucket (late
// events append) until the list is compacted; their sum, plus the slot's
// spill for that bucket, is the bucket's count.
type entry struct {
	slot int32
	n    uint32
}

// spot names one slot's bucket by its list index, the key of a spill.
type spot struct{ slot, list int32 }

// noEntry marks a slot with no entry in the head bucket's list; released
// marks a slot freed while it still has entries, until purge removes them.
const (
	noEntry  int32 = -1
	released int32 = -2
)

// minMark is the smallest length a list may reach before it is compacted:
// below it a compaction would cost more than the duplicates it removes.
const minMark = 16

// wheel holds one tracker shard's pair windows as exact integer totals on
// an expiry wheel. Per slot it keeps the windowed total and where the
// slot's entry sits in the head bucket's list; per window bucket it keeps
// a reused list of (slot, count) entries, the touch list. An increment
// adds to the total and to the head list's entry (a late event inside the
// window appends to its own bucket's list instead), and advancing the
// clock subtracts each expiring list from the totals once. So reads are
// one array load, and maintenance costs what was incremented and what
// expires, never pairs × buckets.
//
// Late events cannot find their slot's entry in an older list, so they
// append duplicates; a list that outgrows twice its length at its last
// compaction is compacted to one entry per slot. Every list therefore
// holds at most 2 × its distinct slots + 2 × minMark entries, whatever the
// arrival order: about two entries per (pair, bucket) counted at worst,
// one when events arrive in time order.
//
// A bucket count wider than an entry's uint32 keeps the entry saturated
// and spills the rest into spill, keyed by (slot, list): a count stays
// exact and costs at most one entry and one spill, so no restored value
// costs more than its bucket. Spills exist only for counts of 2^32 or
// more, so the map is empty in any real stream.
//
// The head is the tracker clock's bucket: every shard advances its wheel
// when the clock moves, so a total is always the pair's count over the
// window ending at the clock.
//
// A slot freed with an empty window has no entries and is reusable at
// once. One freed with entries (an eviction victim) waits in gone until
// purge strips its entries from every list, so a stale entry never
// reaches a slot's next occupant, and lists hold only tracked pairs'
// entries. Not safe for concurrent use.
type wheel struct {
	head   int64 // absolute bucket of the clock
	hi     int   // head mod len(lists): the head bucket's list
	set    bool  // head has been set
	lists  [][]entry
	mark   []int // per list: the length that triggers its next compaction, halved
	totals []uint64
	pos    []int32 // index of the slot's entry in lists[hi], or noEntry/released
	at     []int32 // compaction scratch: a slot's index in the list, -1 between compactions
	spill  map[spot]uint64
	free   []int32 // slots ready for reuse
	gone   []int32 // released slots awaiting purge
}

// newWheel returns an empty wheel of the given bucket count.
func newWheel(buckets int) wheel {
	w := wheel{lists: make([][]entry, buckets), mark: make([]int, buckets)}
	for i := range w.mark {
		w.mark[i] = minMark
	}
	return w
}

// listOf returns the list index of absolute bucket b.
func (w *wheel) listOf(b int64) int {
	n := int64(len(w.lists))
	i := b % n
	if i < 0 {
		i += n
	}
	return int(i)
}

// alloc returns a slot with an empty window.
func (w *wheel) alloc() int32 {
	if n := len(w.free); n > 0 {
		slot := w.free[n-1]
		w.free = w.free[:n-1]
		w.pos[slot] = noEntry
		return slot
	}
	w.totals = append(w.totals, 0)
	w.pos = append(w.pos, noEntry)
	w.at = append(w.at, -1)
	return int32(len(w.totals) - 1)
}

// release frees slot: at once if its window is empty, else at the next
// purge.
func (w *wheel) release(slot int32) {
	if w.totals[slot] == 0 {
		w.free = append(w.free, slot)
		return
	}
	w.pos[slot] = released
	w.gone = append(w.gone, slot)
}

// purge strips the released slots' entries and spills, compacting every
// list on the way, and frees the slots: one pass over the entries, which
// the over-budget sweep pays once for all its victims.
func (w *wheel) purge() {
	if len(w.gone) == 0 {
		return
	}
	for i := range w.lists {
		w.compact(i)
	}
	//enblogue:unordered per-key deletes of released slots' spills
	for k := range w.spill {
		if w.pos[k.slot] == released {
			delete(w.spill, k)
		}
	}
	for _, s := range w.gone {
		w.totals[s], w.pos[s] = 0, noEntry
	}
	w.free = append(w.free, w.gone...)
	w.gone = w.gone[:0]
}

// compact merges each slot's entries of list i into one, dropping
// released slots' entries and keeping the head list's positions current.
// Where a merged count outgrows an entry, the entry saturates and the
// rest spills. The list's next compaction is due at twice its new length.
func (w *wheel) compact(i int) {
	l := w.lists[i]
	k := 0
	for _, e := range l {
		if w.pos[e.slot] == released {
			continue
		}
		if j := w.at[e.slot]; j >= 0 {
			if s := uint64(l[j].n) + uint64(e.n); s <= math.MaxUint32 {
				l[j].n = uint32(s)
			} else {
				l[j].n = math.MaxUint32
				w.spillAt(e.slot, i, s-math.MaxUint32)
			}
			continue
		}
		w.at[e.slot] = int32(k)
		l[k] = e
		k++
	}
	for _, e := range l[:k] {
		if i == w.hi {
			w.pos[e.slot] = w.at[e.slot]
		}
		w.at[e.slot] = -1
	}
	w.lists[i] = l[:k]
	w.mark[i] = max(k, minMark)
}

// spillAt adds v to slot's spill for list i, where the slot holds a
// saturated entry.
func (w *wheel) spillAt(slot int32, i int, v uint64) {
	if w.spill == nil {
		w.spill = make(map[spot]uint64)
	}
	w.spill[spot{slot, int32(i)}] += v
}

// advance moves the head to absolute bucket abs, subtracting every list
// that leaves the window — at most one pass over each list. A bucket at or
// behind the head changes nothing.
func (w *wheel) advance(abs int64) {
	if !w.set {
		w.head, w.hi, w.set = abs, w.listOf(abs), true
		return
	}
	if abs <= w.head {
		return
	}
	n := int64(len(w.lists))
	// Buckets head-n+1 … abs-n leave the window, at most n of them.
	from := max(w.head-n+1, abs-2*n+1)
	for b := from; b <= abs-n; b++ {
		w.expire(w.listOf(b))
	}
	w.head, w.hi = abs, w.listOf(abs)
}

// expire subtracts list i, and its spills, from the totals and empties it.
func (w *wheel) expire(i int) {
	for _, e := range w.lists[i] {
		w.totals[e.slot] -= uint64(e.n)
	}
	w.lists[i] = w.lists[i][:0]
	w.mark[i] = minMark
	//enblogue:unordered integer subtractions and per-key deletes commute
	for k, v := range w.spill {
		if k.list == int32(i) {
			w.totals[k.slot] -= v
			delete(w.spill, k)
		}
	}
}

// inc counts one event of slot at absolute bucket abs, which is never past
// the head. An event older than the window counts nothing.
//
//enblogue:hotpath
func (w *wheel) inc(slot int32, abs int64) {
	if abs != w.head {
		w.add(slot, abs, 1)
		return
	}
	cur := w.lists[w.hi]
	if p := w.pos[slot]; uint(p) < uint(len(cur)) && cur[p].slot == slot {
		if cur[p].n < math.MaxUint32 {
			cur[p].n++
		} else {
			w.spillAt(slot, w.hi, 1)
		}
	} else {
		w.pos[slot] = int32(len(cur))
		w.lists[w.hi] = append(cur, entry{slot, 1})
	}
	w.totals[slot]++
}

// add counts weight v of slot at absolute bucket abs, never past the head.
// It merges into the list's last entry when that is the slot's, else
// appends an entry — saturated, spilling the rest, when v is wider than
// one — and compacts the list when it has doubled. A weight older than the
// window counts nothing.
func (w *wheel) add(slot int32, abs int64, v uint64) {
	if abs <= w.head-int64(len(w.lists)) || v == 0 {
		return
	}
	i := w.listOf(abs)
	l := w.lists[i]
	w.totals[slot] += v
	if k := len(l) - 1; k >= 0 && l[k].slot == slot && uint64(l[k].n)+v <= math.MaxUint32 {
		l[k].n += uint32(v)
		return
	}
	n := min(v, math.MaxUint32)
	if i == w.hi {
		w.pos[slot] = int32(len(l))
	}
	w.lists[i] = append(l, entry{slot, uint32(n)})
	if v > n {
		w.spillAt(slot, i, v-n)
	}
	if len(w.lists[i]) > 2*w.mark[i] {
		w.compact(i)
	}
}

// count returns slot's windowed total.
func (w *wheel) count(slot int32) float64 { return float64(w.totals[slot]) }

// Bucket is one non-zero bucket of an exported pair window: its position
// oldest-first (0 is the oldest bucket of the window, Buckets−1 its head)
// and its count.
type Bucket struct {
	Pos int32
	Val float64
}

// PairWindow is one pair's window as a snapshot holds it: its non-zero
// buckets oldest-first, the absolute bucket of its head, and its total.
// HeadSet is false only for a window with nothing in it that no clock has
// placed.
type PairWindow struct {
	Buckets []Bucket
	Head    int64
	HeadSet bool
	Total   float64
}

// maxExact is the largest count a window holds exactly: float64 represents
// every integer up to 2^53.
const maxExact = 1 << 53

// Check reports why w cannot be a window of a tracker with the given
// bucket count and resolution whose clock is nowNano, or nil: a bucket
// position out of range or out of order, a count that is negative, NaN,
// not an integer or above 2^53 (the snapshot's float64 holds no wider
// count exactly, and no stream reaches it), a total that is not the sum
// of the counts, values under an unset head, or a head past the clock's
// bucket. Any count Check accepts costs the wheel one entry and at most
// one spill. The snapshot decoder and RestoreState both refuse on it.
func (w *PairWindow) Check(buckets int, res time.Duration, nowNano int64) error {
	sum := uint64(0) // exact, as the wheel's total is
	prev := int32(-1)
	for _, b := range w.Buckets {
		if b.Pos <= prev || int(b.Pos) >= buckets {
			return fmt.Errorf("pairs: window bucket position %d out of order or range", b.Pos)
		}
		prev = b.Pos
		if !(b.Val > 0 && b.Val <= maxExact && b.Val == math.Trunc(b.Val)) {
			return fmt.Errorf("pairs: window bucket count %v is not an integer in (0, 2^53]", b.Val)
		}
		if sum > math.MaxUint64-uint64(b.Val) {
			return fmt.Errorf("pairs: window counts overflow a total")
		}
		sum += uint64(b.Val)
	}
	if w.Total != float64(sum) {
		return fmt.Errorf("pairs: window total %v is not the sum %d of its buckets", w.Total, sum)
	}
	if !w.HeadSet {
		if sum != 0 {
			return fmt.Errorf("pairs: window with counts but no head")
		}
		return nil
	}
	if now := nowNano / int64(res); w.Head > now {
		return fmt.Errorf("pairs: window head %d past the clock's bucket %d", w.Head, now)
	}
	return nil
}
