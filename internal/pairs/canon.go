package pairs

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"enblogue/internal/intern"
)

// This file computes the canonical (Key.Compare) order of a whole export
// without comparing strings per pair. Every tag of the export is looked up
// once and ranked twice: in plain string order, and in the order of t+"+".
// A key renders as t1+"+"+t2 with t1 the smaller tag, so two keys with
// different first tags order as their t1+"+" strings do, and two keys with
// the same first tag order as their second tags do: the word
// rankPlus(t1)<<32 | rankPlain(t2) sorts exactly like Key.Compare. The one
// exception is a first tag whose t+"+" is a proper prefix of another first
// tag's, that is a tag of the set that begins with another tag plus "+"
// ("a" and "a+b", or "*" and "*+"). Only there does the comparison run on
// into the second tags — "*"+"+"+"+z" orders after "*+"+"+"+"+", though "*+"
// orders after "*++" — so such tags carry a flag, and comparisons between
// different first tags of which one is flagged fall back to Key.Compare.

// tagRanks is one export's tag ranking. Tags are numbered locally, so
// every array is sized by the export's own
// distinct tags and never by the process-wide ID space.
type tagRanks struct {
	strs  []string // local index → tag
	plain []int32  // local index → rank in string order
	// loc[2i] and loc[2i+1] are the local indexes of key i's two IDs, in
	// packed order.
	loc []uint32
}

// rankTags numbers keys' distinct tags and ranks them in string order. The
// IDs are numbered in first-seen order through an open-addressed table at
// most half full: there are at most two distinct tags per key, and no more
// than the interner holds.
func rankTags(keys []Key) tagRanks {
	lg := max(4, bits.Len(uint(2*min(2*len(keys), intern.Tags.Len()))))
	table := make([]uint64, 1<<lg) // id+1 <<32 | local index; 0 is empty
	mask := uint32(len(table) - 1)
	ids := make([]uint32, 0, 2*len(keys))
	r := tagRanks{loc: make([]uint32, 2*len(keys))}
	for j := range r.loc {
		id := uint32(keys[j/2].packed >> (32 * (1 - j%2))) // biased by +1
		h := id * 0x9e3779b1 >> (32 - lg)
		for table[h] != 0 && uint32(table[h]>>32) != id {
			h = (h + 1) & mask
		}
		if table[h] == 0 {
			table[h] = uint64(id)<<32 | uint64(len(ids))
			ids = append(ids, id-1)
		}
		r.loc[j] = uint32(table[h])
	}
	r.strs = make([]string, len(ids))
	for i, id := range ids {
		r.strs[i] = intern.Lookup(id)
	}
	r.plain = ranksBy(r.strs, strings.Compare)
	return r
}

// ranksBy returns each string's rank under cmp: the inverse of the sorting
// permutation.
func ranksBy(strs []string, cmp func(a, b string) int) []int32 {
	ord := make([]int32, len(strs))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return cmp(strs[a], strs[b]) })
	return invert(ord)
}

// invert turns a sorting permutation (perm[r] is the index at position r)
// into ranks (rank[i] is index i's position).
func invert(perm []int32) []int32 {
	rank := make([]int32, len(perm))
	for r, i := range perm {
		rank[i] = int32(r)
	}
	return rank
}

// comparePlus compares a+"+" with b+"+" without building either.
func comparePlus(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	// One is a proper prefix of the other: the shorter one's '+' meets the
	// longer one's next byte, and on a tie the shorter string ends first.
	if len(a) < len(b) {
		if b[n] >= '+' {
			return -1
		}
		return 1
	}
	if a[n] >= '+' {
		return 1
	}
	return -1
}

// extendsWithPlus reports whether b begins with a+"+": whether a+"+" is a
// proper prefix of b+"+".
func extendsWithPlus(b, a string) bool {
	return len(b) > len(a) && b[len(a)] == '+' && b[:len(a)] == a
}

// canonEntry is one key's sort word, its index in the export, and whether
// its first tag is extended by another tag of the set.
type canonEntry struct {
	word uint64
	idx  int32
	ext  bool
}

// CanonicalRanks returns each key's position in Key.Compare order: rank[i]
// is where keys[i] goes, 0 for the smallest. keys must be distinct and
// non-zero. The order is exactly the one sort.Slice with Key.Less gives, at
// the cost of one intern lookup per distinct tag and word compares per
// pair.
func CanonicalRanks(keys []Key) []int32 {
	r := rankTags(keys)
	plus := ranksBy(r.strs, comparePlus)
	// In t+"+" order a tag's "+"-extensions follow it directly, so one look
	// at the next tag finds every extended tag.
	byPlus := invert(plus)
	ext := make([]bool, len(plus))
	for p := 0; p+1 < len(byPlus); p++ {
		ext[byPlus[p]] = extendsWithPlus(r.strs[byPlus[p+1]], r.strs[byPlus[p]])
	}

	ents := make([]canonEntry, len(keys))
	for i := range keys {
		l1, l2 := r.loc[2*i], r.loc[2*i+1]
		if r.plain[l1] > r.plain[l2] {
			l1, l2 = l2, l1
		}
		ents[i] = canonEntry{word: uint64(plus[l1])<<32 | uint64(r.plain[l2]), idx: int32(i), ext: ext[l1]}
	}
	slices.SortFunc(ents, func(a, b canonEntry) int {
		if (a.ext || b.ext) && a.word>>32 != b.word>>32 {
			return keys[a.idx].Compare(keys[b.idx])
		}
		return cmp.Compare(a.word, b.word)
	})
	rank := make([]int32, len(ents))
	for at, e := range ents {
		rank[e.idx] = int32(at)
	}
	return rank
}

// TagTable returns keys' distinct tags in string order and, for key i, the
// positions of its smaller and larger tag in that table at pos[2i] and
// pos[2i+1] — a snapshot's tag table and its keys' encoding, with one
// intern lookup per distinct tag.
func TagTable(keys []Key) (table []string, pos []uint32) {
	r := rankTags(keys)
	table = make([]string, len(r.strs))
	for i, s := range r.strs {
		table[r.plain[i]] = s
	}
	pos = r.loc
	for i := 0; i < len(pos); i += 2 {
		a, b := uint32(r.plain[pos[i]]), uint32(r.plain[pos[i+1]])
		if a > b {
			a, b = b, a
		}
		pos[i], pos[i+1] = a, b
	}
	return table, pos
}
