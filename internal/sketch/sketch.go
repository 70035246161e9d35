// Package sketch provides the synopses the paper's architecture calls out
// ("plug-in options for sketching operators that map stream items into
// synopses"), as the tail tier uses them: a Count-Min sketch for
// approximate frequencies of interned 64-bit keys, a windowed
// two-generation Count-Min, and a weighted Space-Saving heavy-hitter
// summary over interned keys.
//
// Rows are salted with splitmix64, so the package needs nothing outside
// the standard library.
package sketch

import (
	"fmt"
	"math"
)

// hashU64 hashes an already-interned 64-bit key (a packed pairs.Key) with a
// per-row salt using the splitmix64 finaliser. This is the tier's hot-path
// hash: demoted pairs arrive as packed uint64s, so no string is ever formed
// or hashed. Interned IDs are assigned in first-appearance order on a
// sequentially consumed stream, so the packed key — and therefore every row
// index derived here — is itself deterministic across replays (DESIGN.md
// §12). Zero allocations, pinned by TestSketchHashZeroAlloc.
func hashU64(key, salt uint64) uint64 {
	z := key + (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CountMin is a Count-Min sketch: a depth × width matrix of counters. Count
// estimates are upper bounds; with width w and depth d, the overestimate is
// at most εN with probability 1-δ where ε = e/w and δ = e^-d.
type CountMin struct {
	depth, width int
	rows         [][]uint64
	total        uint64
}

// NewCountMin returns a sketch with the given depth (number of hash rows)
// and width (counters per row). It panics on non-positive dimensions.
func NewCountMin(depth, width int) *CountMin {
	if depth < 1 || width < 1 {
		panic(fmt.Sprintf("sketch: CountMin dimensions %dx%d invalid", depth, width))
	}
	rows := make([][]uint64, depth)
	for i := range rows {
		rows[i] = make([]uint64, width)
	}
	return &CountMin{depth: depth, width: width, rows: rows}
}

// NewCountMinWithError returns a sketch sized for additive error at most
// epsilon × N with failure probability delta.
func NewCountMinWithError(epsilon, delta float64) *CountMin {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("sketch: invalid epsilon %v / delta %v", epsilon, delta))
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(depth, width)
}

// AddU64 increments the count of an already-interned 64-bit key by n. This
// is the zero-allocation ingest path used by the tail tier: the key is a
// packed pairs.Key, hashed with splitmix64 rather than string FNV.
//
//enblogue:hotpath
func (c *CountMin) AddU64(key uint64, n uint64) {
	for i := 0; i < c.depth; i++ {
		j := hashU64(key, uint64(i)) % uint64(c.width)
		c.rows[i][j] += n
	}
	c.total += n
}

// CountU64 returns the estimated count of a 64-bit key (never an
// underestimate).
//
//enblogue:hotpath
func (c *CountMin) CountU64(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for i := 0; i < c.depth; i++ {
		j := hashU64(key, uint64(i)) % uint64(c.width)
		if v := c.rows[i][j]; v < min {
			min = v
		}
	}
	return min
}

// Epsilon returns the additive-error fraction of the sketch: estimates
// exceed true counts by at most Epsilon × Total with probability 1-δ.
func (c *CountMin) Epsilon() float64 { return math.E / float64(c.width) }

// Total returns the total mass added to the sketch.
func (c *CountMin) Total() uint64 { return c.total }

// Reset zeroes the sketch.
func (c *CountMin) Reset() {
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = 0
		}
	}
	c.total = 0
}
