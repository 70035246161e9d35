package window

import (
	"fmt"
	"math"
	"time"
)

// CounterArena is a slab allocator for unit-weight sliding-window counters:
// the state of every counter lives in a handful of shared backing slices
// (one bucket slab plus per-slot headers) instead of one heap object per
// counter. A tracker shard that follows a hundred thousand pairs holds one
// CounterArena, not a hundred thousand counter allocations — better cache
// locality on the tick-time scan over all slots, and near-zero GC scanning
// (the slabs contain no pointers).
//
// The bucket slab is laid out bucket-major: row p holds bucket position p
// of every slot, so buckets[p*stride+slot] is slot's bucket p. The layout
// is chosen for the tick-time walk: callers visit slots in slot order and
// every slot expires the same bucket positions (they share one absolute
// clock), so the expiry scan reads one dense row sequentially instead of
// striding across per-slot sub-slabs one cache line per slot.
//
// Each slot is one sliding-window event counter: Inc credits the bucket
// containing t, buckets older than the span are lazily zeroed as time
// advances, increments older than the window are dropped. Out-of-order
// increments that still land inside the window count in their own bucket.
// Because every increment adds exactly 1.0, the running total stays exact
// (float64 is exact for integers up to 2^53) and no separate event count
// is needed.
//
// Slots are fixed-size, so freed slots are recycled through a free list.
// Not safe for concurrent use; callers shard and lock around it.
type CounterArena struct {
	res      time.Duration
	nbuckets int
	stride   int       // row length: slot capacity of the bucket slab
	buckets  []float64 // bucket-major: buckets[p*stride+slot], see type doc
	heads    []int64   // absolute bucket index of the window head per slot
	totals   []float64 // sum of in-window buckets per slot
	free     []int32   // recycled slot indexes
}

// headUnset marks a slot whose window head has not been initialised.
const headUnset = math.MinInt64

// NewCounterArena returns an arena of sliding counters with the given
// bucket count and resolution. It panics on non-positive parameters, which
// indicate a programming error.
func NewCounterArena(nbuckets int, resolution time.Duration) *CounterArena {
	if nbuckets < 1 {
		panic(fmt.Sprintf("window: bucket count %d < 1", nbuckets))
	}
	if resolution <= 0 {
		panic(fmt.Sprintf("window: resolution %v <= 0", resolution))
	}
	return &CounterArena{res: resolution, nbuckets: nbuckets}
}

// grow doubles the slab's slot capacity, re-laying every row at the new
// stride. Amortised over the doubling schedule the per-slot cost is O(1).
func (a *CounterArena) grow() {
	stride := a.stride * 2
	if stride == 0 {
		stride = 64
	}
	slab := make([]float64, a.nbuckets*stride)
	for p := 0; p < a.nbuckets; p++ {
		copy(slab[p*stride:p*stride+len(a.heads)], a.buckets[p*a.stride:p*a.stride+len(a.heads)])
	}
	a.buckets = slab
	a.stride = stride
}

// clearSlot zeroes the slot's column across all bucket rows.
func (a *CounterArena) clearSlot(slot int32) {
	for p, i := 0, int(slot); p < a.nbuckets; p++ {
		a.buckets[i] = 0
		i += a.stride
	}
}

// Alloc returns a fresh zeroed counter slot.
func (a *CounterArena) Alloc() int32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		a.clearSlot(slot)
		a.heads[slot] = headUnset
		a.totals[slot] = 0
		return slot
	}
	if len(a.heads) == a.stride {
		a.grow()
	}
	// A never-issued slot's column is zero already: grow() allocates
	// zero-filled slabs and columns past len(heads) are never written.
	slot := int32(len(a.heads))
	a.heads = append(a.heads, headUnset)
	a.totals = append(a.totals, 0)
	return slot
}

// Release returns a slot to the free list. The slot must not be used again
// until re-issued by Alloc.
func (a *CounterArena) Release(slot int32) {
	a.free = append(a.free, slot)
}

// bucketIndex maps a timestamp to its absolute bucket number.
func (a *CounterArena) bucketIndex(t time.Time) int64 {
	return t.UnixNano() / int64(a.res)
}

// BucketIndex exposes the timestamp → absolute bucket mapping so batch
// observers can convert each document's time once and replay increments via
// IncAbs, instead of re-deriving the bucket per (pair, document) increment.
func (a *CounterArena) BucketIndex(t time.Time) int64 { return a.bucketIndex(t) }

// advance moves slot's window head to cover abs, zeroing buckets that fall
// out of the window; an abs at or behind the head changes nothing.
func (a *CounterArena) advance(slot int32, abs int64) {
	head := a.heads[slot]
	if head == headUnset {
		a.heads[slot] = abs
		return
	}
	if abs <= head {
		return
	}
	if a.totals[slot] == 0 {
		// Nothing in the window: every bucket is already zero (only
		// in-window buckets are ever non-zero, and they are non-negative),
		// so the head can jump without touching the slab.
		a.heads[slot] = abs
		return
	}
	n := int64(a.nbuckets)
	s := int(slot)
	if abs-head >= n {
		a.clearSlot(slot)
		a.totals[slot] = 0
		a.heads[slot] = abs
		return
	}
	// One modulo for the first expired bucket, then wrap by comparison:
	// the per-bucket integer division would otherwise dominate this loop.
	// Most expiring buckets are zero (sparse slots), so the stores are
	// guarded — reading a clean cache line is much cheaper than dirtying
	// it, and this loop touches every live slot every tick.
	total := a.totals[slot]
	p := int(mod(head+1, n))
	for b := head + 1; b <= abs; b++ {
		if i := p*a.stride + s; a.buckets[i] != 0 {
			total -= a.buckets[i]
			a.buckets[i] = 0
		}
		if p++; p == a.nbuckets {
			p = 0
		}
	}
	if total != a.totals[slot] {
		a.totals[slot] = total
	}
	a.heads[slot] = abs
}

// Inc records one event at time t in the slot. Events older than the
// current window are dropped; newer events advance the window.
func (a *CounterArena) Inc(slot int32, t time.Time) {
	a.IncAbs(slot, a.bucketIndex(t))
}

// IncAbs is Inc with the timestamp pre-converted through BucketIndex: the
// batch ingest path converts each document's time once and then applies all
// of its pair increments by absolute bucket.
func (a *CounterArena) IncAbs(slot int32, abs int64) {
	a.advance(slot, abs)
	if abs <= a.heads[slot]-int64(a.nbuckets) {
		return // too old: outside the window
	}
	a.buckets[int(mod(abs, int64(a.nbuckets)))*a.stride+int(slot)]++
	a.totals[slot]++
}

// Observe advances the slot's window to time t without recording anything,
// expiring stale buckets.
func (a *CounterArena) Observe(slot int32, t time.Time) {
	a.advance(slot, a.bucketIndex(t))
}

// Value returns the number of events inside the slot's window, as last
// advanced. Call Observe first to expire stale buckets.
func (a *CounterArena) Value(slot int32) float64 { return a.totals[slot] }

// ValueAt advances the slot's window to t and returns the in-window count:
// the common Observe+Value read.
func (a *CounterArena) ValueAt(slot int32, t time.Time) float64 {
	a.advance(slot, a.bucketIndex(t))
	return a.totals[slot]
}

// ValueAtAbs is ValueAt with the timestamp pre-converted through
// BucketIndex: snapshot walks advance every slot to one shared bucket.
func (a *CounterArena) ValueAtAbs(slot int32, abs int64) float64 {
	a.advance(slot, abs)
	return a.totals[slot]
}

// PeekAbs returns the slot's in-window count as of abs, mutating nothing
// when the answer is provably current: an empty window stays empty under
// any advance (only in-window buckets are ever non-zero), and an
// already-advanced window needs no expiry. Snapshot walks touch every
// live slot every tick and many slots are empty or already advanced by an
// increment, so the pure-read paths keep those slots' header cache lines
// clean. Slots that do need expiry fall through to the same advance as
// ValueAtAbs.
func (a *CounterArena) PeekAbs(slot int32, abs int64) float64 {
	t := a.totals[slot]
	if t == 0 {
		return 0
	}
	if abs <= a.heads[slot] {
		return t
	}
	a.advance(slot, abs)
	return a.totals[slot]
}

// Series returns the slot's per-bucket counts oldest-first. The slice is
// freshly allocated (Series is a boundary read, not a hot-path one).
func (a *CounterArena) Series(slot int32) []float64 {
	out := make([]float64, a.nbuckets)
	head := a.heads[slot]
	if head == headUnset {
		return out
	}
	n := int64(a.nbuckets)
	for i := int64(0); i < n; i++ {
		b := head - (n - 1) + i
		out[i] = a.buckets[int(mod(b, n))*a.stride+int(slot)]
	}
	return out
}
