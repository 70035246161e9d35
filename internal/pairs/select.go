package pairs

import (
	"math/bits"
	"slices"
)

// rankedPair is one pair decorated for ShardedTracker's selection kernel:
// its ranking count, the first eight bytes of its rendered "tag1+tag2" key
// (Key.renderPrefix), the key itself, and where the pair lives when it is
// tracked (slot and shard; slot is unused for tail candidates).
type rankedPair struct {
	count  float64
	prefix uint64
	key    Key
	slot   int32
	shard  int32
}

// compareRanked orders entries by (count, rendered key) ascending — the
// order the serial Tracker's full sort gives pairs. The prefix orders
// rendered keys whenever it differs, so Key.Compare, which resolves both
// keys through the interner and walks their bytes, runs only when the
// prefixes tie.
// Keys are distinct, so this is a strict total order.
func compareRanked(a, b rankedPair) int {
	switch {
	case a.count < b.count:
		return -1
	case a.count > b.count:
		return 1
	case a.prefix < b.prefix:
		return -1
	case a.prefix > b.prefix:
		return 1
	}
	return a.key.Compare(b.key)
}

// selectSmallest reorders es so that es[:m] (0 ≤ m ≤ len(es)) holds its m
// smallest entries under compareRanked, in ascending order. A quickselect
// isolates them in expected O(len(es)) comparisons and only they are
// sorted, so the cost follows what is selected rather than everything
// ranked; a depth budget falls back to sorting the remaining range,
// bounding the worst case at O(n log n). The order is strict, so the
// result is one fixed sequence whatever the input order.
func selectSmallest(es []rankedPair, m int) {
	// Invariant: every entry of es[:lo] orders before every entry of
	// es[lo:], and every entry of es[:hi] before every entry of es[hi:].
	lo, hi := 0, len(es)
	for budget := 2 * bits.Len(uint(len(es))); lo < m && m < hi; budget-- {
		if hi-lo <= 16 || budget == 0 {
			slices.SortFunc(es[lo:hi], compareRanked)
			break
		}
		p := lo + partitionRanked(es[lo:hi])
		if p < m {
			lo = p + 1
		} else {
			hi = p
		}
	}
	slices.SortFunc(es[:m], compareRanked)
}

// partitionRanked moves a median-of-three pivot to its final position in
// es (len(es) ≥ 3) and returns that position: entries before it order
// before the pivot, entries after it order after.
func partitionRanked(es []rankedPair) int {
	last := len(es) - 1
	mid := last / 2
	if compareRanked(es[mid], es[0]) < 0 {
		es[0], es[mid] = es[mid], es[0]
	}
	if compareRanked(es[last], es[mid]) < 0 {
		es[mid], es[last] = es[last], es[mid]
		if compareRanked(es[mid], es[0]) < 0 {
			es[0], es[mid] = es[mid], es[0]
		}
	}
	es[mid], es[last] = es[last], es[mid]
	pivot := es[last]
	i := 0
	for j := 0; j < last; j++ {
		if compareRanked(es[j], pivot) < 0 {
			es[i], es[j] = es[j], es[i]
			i++
		}
	}
	es[i], es[last] = es[last], es[i]
	return i
}
