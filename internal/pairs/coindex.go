package pairs

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"enblogue/internal/intern"
)

// CoIndex is the co-tag distribution view behind distribution mode —
// documents represented "by their entire tag sets". A tag's co-tag
// distribution is its row of the unfiltered pair-count matrix, which is
// what a ShardedTracker fed every pair (ObserveIDs with nil seeds)
// holds. Build lays those counts out in CSR form once per tick: rows in
// tag-string order, each row's co-tags in tag-string order, so the
// Jensen–Shannon sum runs in one fixed order whatever the intern or shard
// order — its float result depends on that order in the last ulps.
//
// The zero value is empty. Build reuses every buffer, so a steady-state
// rebuild allocates nothing; after Build, Similarity is safe for
// concurrent use.
type CoIndex struct {
	row []int32   // by tag ID: the tag's row + 1, 0 when it has none
	ids []uint32  // row r's tag ID
	off []int32   // row r is ent[off[r]:off[r+1]]
	ent []coCount // every row's entries, row-major
}

// coCount is one entry of row row. A co-tag is named by its own row
// number, its rank in tag-string order.
type coCount struct {
	row, co int32
	n       float64 // windowed co-occurrence count, always > 0
}

// Build replaces the index contents with the positive counts in snaps, one
// AppendSnapshot result per shard of an unfiltered ShardedTracker.
func (ix *CoIndex) Build(snaps [][]PairCount) {
	for _, id := range ix.ids {
		ix.row[id] = 0
	}
	ix.ids = ix.ids[:0]
	for _, snap := range snaps {
		for _, pc := range snap {
			if pc.Count > 0 {
				a, b := pc.Key.IDs()
				ix.addTag(a)
				ix.addTag(b)
			}
		}
	}
	slices.SortFunc(ix.ids, func(a, b uint32) int {
		return strings.Compare(intern.Lookup(a), intern.Lookup(b))
	})
	for r, id := range ix.ids {
		ix.row[id] = int32(r) + 1
	}
	ix.ent = ix.ent[:0]
	for _, snap := range snaps {
		for _, pc := range snap {
			if pc.Count > 0 {
				a, b := pc.Key.IDs()
				ra, rb := ix.row[a]-1, ix.row[b]-1
				ix.ent = append(ix.ent, coCount{ra, rb, pc.Count}, coCount{rb, ra, pc.Count})
			}
		}
	}
	slices.SortFunc(ix.ent, func(x, y coCount) int {
		return cmp.Or(cmp.Compare(x.row, y.row), cmp.Compare(x.co, y.co))
	})
	ix.off = ix.off[:0]
	for i, e := range ix.ent {
		if int(e.row) == len(ix.off) { // every row has an entry
			ix.off = append(ix.off, int32(i))
		}
	}
	ix.off = append(ix.off, int32(len(ix.ent)))
}

// addTag marks tag id as having a row, growing the ID index with the
// interned vocabulary.
func (ix *CoIndex) addTag(id uint32) {
	for int(id) >= len(ix.row) {
		ix.row = append(ix.row, 0)
	}
	if ix.row[id] == 0 {
		ix.row[id] = -1
		ix.ids = append(ix.ids, id)
	}
}

// rowOf returns tag id's row number and entries, or -1 and nil when the
// tag co-occurs with nothing in the window.
func (ix *CoIndex) rowOf(id uint32) (int32, []coCount) {
	if int(id) >= len(ix.row) || ix.row[id] <= 0 {
		return -1, nil
	}
	r := ix.row[id] - 1
	return r, ix.ent[ix.off[r]:ix.off[r+1]]
}

// Similarity returns 1 − JS distance between the co-tag distributions of
// tags a and b (interned IDs): 1 for identical usage, 0 for disjoint. This
// is the bounded relative-entropy correlation the paper sketches for
// distribution-valued documents. The pair members themselves are excluded
// from both distributions: the comparison asks whether a and b keep the
// same *company*, and each is trivially its partner's company.
//
// Two effectively empty distributions mean no usage evidence at all — e.g.
// both tags' pairs were evicted under memory pressure — and score 0, not
// the 1.0 that "identical (empty) usage" would naively yield: a spurious
// perfect correlation would register as a large prediction error and
// fabricate an emergent topic.
//
// The result is symmetric to the last bit: the divergence adds each
// co-tag's two terms in a fixed order, so the pair is always scored in
// tag-string order, whichever way round the IDs come.
func (ix *CoIndex) Similarity(a, b uint32) float64 {
	ra, p := ix.rowOf(a)
	rb, q := ix.rowOf(b)
	if ra > rb {
		// A tag without a row ranks -1 here, but then its total is zero and
		// the result an exact 0 either way round.
		ra, rb, p, q = rb, ra, q, p
	}
	// A row names each co-tag at most once.
	if (len(p) == 0 || len(p) == 1 && p[0].co == rb) && (len(q) == 0 || len(q) == 1 && q[0].co == ra) {
		return 0
	}
	return 1 - jsDistance(p, q, rb, ra)
}

// jsDistance returns the Jensen–Shannon distance (square root of the JS
// divergence, base-2) between two rows, with co-tag exp treated as absent
// from p and exq as absent from q: a bounded [0, 1] relative-entropy
// distance. The totals and the divergence accumulate in co-tag order,
// the divergence over a merge walk of the two sorted rows.
func jsDistance(p, q []coCount, exp, exq int32) float64 {
	var pTotal, qTotal float64
	for _, e := range p {
		if e.co != exp {
			pTotal += e.n
		}
	}
	for _, e := range q {
		if e.co != exq {
			qTotal += e.n
		}
	}
	if pTotal == 0 || qTotal == 0 {
		if pTotal == qTotal {
			return 0
		}
		return 1
	}
	var js float64
	for i, j := 0, 0; i < len(p) || j < len(q); {
		var pk, qk float64
		switch {
		case i < len(p) && p[i].co == exp:
			i++
			continue
		case j < len(q) && q[j].co == exq:
			j++
			continue
		case j == len(q) || i < len(p) && p[i].co < q[j].co:
			pk = p[i].n / pTotal
			i++
		case i == len(p) || q[j].co < p[i].co:
			qk = q[j].n / qTotal
			j++
		default:
			pk = p[i].n / pTotal
			qk = q[j].n / qTotal
			i++
			j++
		}
		m := (pk + qk) / 2
		if pk > 0 {
			js += pk / 2 * math.Log2(pk/m)
		}
		if qk > 0 {
			js += qk / 2 * math.Log2(qk/m)
		}
	}
	return math.Sqrt(min(max(js, 0), 1))
}
