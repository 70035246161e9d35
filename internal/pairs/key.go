package pairs

import "enblogue/internal/intern"

// Key identifies an unordered tag pair. It is one packed word: the two
// tags' interned IDs (see internal/intern), each biased by +1 so the zero
// Key means "no pair", packed smaller-ID-first. Packing is canonical —
// MakeKey(a, b) == MakeKey(b, a) — so Key works directly as a comparable
// map key, and the hot path (candidate generation, co-occurrence counting,
// shift detection) hashes and compares a single uint64 instead of two
// strings. The tag strings are recovered from the interner only at the
// boundaries: ranking renders, eviction tie-breaks, and the public
// accessors below.
type Key struct {
	packed uint64
}

// MakeKey returns the canonical key for tags a and b, interning both.
func MakeKey(a, b string) Key {
	return KeyFromIDs(intern.Intern(a), intern.Intern(b))
}

// KeyFromIDs returns the canonical key for two interned tag IDs.
func KeyFromIDs(a, b uint32) Key {
	lo, hi := uint64(a)+1, uint64(b)+1
	if lo > hi {
		lo, hi = hi, lo
	}
	return Key{packed: lo<<32 | hi}
}

// IDs returns the pair's interned tag IDs in unspecified order. Only valid
// for non-zero keys.
func (k Key) IDs() (uint32, uint32) {
	return uint32(k.packed>>32) - 1, uint32(k.packed) - 1
}

// tags returns the pair's tag strings in lexicographic order — the
// rendering order every Key accessor and tie-break uses, independent of
// interning order.
func (k Key) tags() (string, string) {
	if k.packed == 0 {
		return "", ""
	}
	a := intern.Lookup(uint32(k.packed>>32) - 1)
	b := intern.Lookup(uint32(k.packed) - 1)
	if b < a {
		a, b = b, a
	}
	return a, b
}

// Tags returns both tags of the pair in lexicographic order, with a single
// pass through the interner — the form hot boundaries use when they need
// both tags.
func (k Key) Tags() (tag1, tag2 string) { return k.tags() }

// Tag1 returns the lexicographically smaller tag of the pair.
func (k Key) Tag1() string { a, _ := k.tags(); return a }

// Tag2 returns the lexicographically larger tag of the pair.
func (k Key) Tag2() string { _, b := k.tags(); return b }

// Contains reports whether the pair includes tag.
func (k Key) Contains(tag string) bool {
	a, b := k.tags()
	return a == tag || b == tag
}

// Other returns the tag paired with the given one, and whether tag is part
// of the pair at all.
func (k Key) Other(tag string) (string, bool) {
	a, b := k.tags()
	switch tag {
	case a:
		return b, true
	case b:
		return a, true
	}
	return "", false
}

// String renders the pair as "tag1+tag2".
func (k Key) String() string {
	a, b := k.tags()
	return a + "+" + b
}

// Compare orders keys exactly as strings.Compare would order their
// String() renderings, without materialising the renderings — the
// allocation-free form of the engine's deterministic tie-break.
func (k Key) Compare(o Key) int {
	if k.packed == o.packed {
		return 0
	}
	a1, a2 := k.tags()
	b1, b2 := o.tags()
	return compareJoined(a1, a2, b1, b2)
}

// Less reports whether k orders before o under Compare.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// compareJoined compares the virtual strings (a1 + "+" + a2) and
// (b1 + "+" + b2) byte-wise without concatenating them.
func compareJoined(a1, a2, b1, b2 string) int {
	la, lb := len(a1)+1+len(a2), len(b1)+1+len(b2)
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n; i++ {
		ca, cb := joinedByte(a1, a2, i), joinedByte(b1, b2, i)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	switch {
	case la == lb:
		return 0
	case la < lb:
		return -1
	default:
		return 1
	}
}

// renderPrefix packs the first eight bytes of the rendered "tag1+tag2"
// key big-endian into a word, zero-padded past the end. The packing is
// order-preserving: if prefix(k) < prefix(o) then k.Compare(o) < 0, since
// the first differing byte either differs in both renderings or marks the
// end of k's, which then is a proper prefix of o's. Equal prefixes say
// nothing, and callers fall back to Compare.
func (k Key) renderPrefix() uint64 {
	a, b := k.tags()
	n := len(a) + 1 + len(b)
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < n {
			p |= uint64(joinedByte(a, b, i))
		}
	}
	return p
}

// joinedByte returns byte i of the virtual string s1 + "+" + s2.
func joinedByte(s1, s2 string, i int) byte {
	if i < len(s1) {
		return s1[i]
	}
	if i == len(s1) {
		return '+'
	}
	return s2[i-len(s1)-1]
}

// Shard maps the pair to one of n shards. The function is pure in the key
// contents: the same key always lands on the same shard for a given n, and
// for n == 1 every key lands on shard 0.
func (k Key) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.hash() % uint64(n))
}

// hash mixes the packed ID pair through splitmix64's finaliser so shard
// assignment spreads evenly for any shard count. Interned IDs are assigned
// in first-seen stream order, so replaying the same stream in two runs
// yields the same IDs and therefore the same shard assignment — the
// property the previous string-FNV hash provided, now at word cost.
func (k Key) hash() uint64 { return mix64(k.packed) }

// mix64 is splitmix64's finaliser.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
