package pairs

import (
	"math"
	"sort"
	"testing"
	"time"

	"enblogue/internal/intern"
)

// This file keeps the string-keyed distribution similarity that CoIndex
// replaced, as the reference FuzzSimilarityMatchesReference checks it
// against: a per-tag map of positive co-tag counts, the partner excluded
// on the fly, and the Jensen–Shannon sum run over the sorted union of the
// two maps' keys.

// refSimilarityFrom is 1 − JS distance between the co-tag distributions of
// a and b in dists, each distribution holding only positive counts; two
// effectively empty distributions score 0. Neither map is copied or
// mutated.
func refSimilarityFrom(dists map[string]map[string]float64, a, b string) float64 {
	da, db := dists[a], dists[b]
	if lenExcluding(da, b) == 0 && lenExcluding(db, a) == 0 {
		return 0
	}
	return 1 - refJSDistance(da, db, b, a)
}

// lenExcluding returns len(m) not counting key ex.
func lenExcluding(m map[string]float64, ex string) int {
	n := len(m)
	if _, ok := m[ex]; ok {
		n--
	}
	return n
}

// refJSDistance is the Jensen–Shannon distance between two count maps,
// with key exp treated as absent from p and exq as absent from q, summed
// in sorted key order.
func refJSDistance(p, q map[string]float64, exp, exq string) float64 {
	support := unionSupportExcluding(p, q, exp, exq)
	var pTotal, qTotal float64
	for _, k := range support {
		if v := exclVal(p, k, exp); v > 0 {
			pTotal += v
		}
		if v := exclVal(q, k, exq); v > 0 {
			qTotal += v
		}
	}
	if pTotal == 0 || qTotal == 0 {
		if pTotal == qTotal {
			return 0
		}
		return 1
	}
	var js float64
	for _, k := range support {
		pk := exclVal(p, k, exp) / pTotal
		qk := exclVal(q, k, exq) / qTotal
		m := (pk + qk) / 2
		if pk > 0 {
			js += pk / 2 * math.Log2(pk/m)
		}
		if qk > 0 {
			js += qk / 2 * math.Log2(qk/m)
		}
	}
	if js < 0 {
		js = 0
	}
	if js > 1 {
		js = 1
	}
	return math.Sqrt(js)
}

// exclVal reads m[k], treating key ex as absent.
func exclVal(m map[string]float64, k, ex string) float64 {
	if k == ex {
		return 0
	}
	return m[k]
}

// unionSupportExcluding returns the sorted union of the two maps' positive
// keys, honouring the per-map exclusions.
func unionSupportExcluding(p, q map[string]float64, exp, exq string) []string {
	support := make([]string, 0, len(p)+len(q))
	for k, v := range p {
		if v > 0 && k != exp {
			support = append(support, k)
		}
	}
	for k, v := range q {
		if v <= 0 || k == exq {
			continue
		}
		if pv, ok := p[k]; ok && pv > 0 && k != exp {
			continue // already contributed by p
		}
		support = append(support, k)
	}
	sort.Strings(support)
	return support
}

// jsd runs jsDistance on two count maps with nothing excluded: the maps'
// positive entries become rows whose co-tags are ranks in the sorted union
// of their keys, as CoIndex numbers them.
func jsd(p, q map[string]float64) float64 {
	keys := unionSupportExcluding(p, q, "", "")
	row := func(m map[string]float64) []coCount {
		var r []coCount
		for i, k := range keys {
			if v := m[k]; v > 0 {
				r = append(r, coCount{co: int32(i), n: v})
			}
		}
		return r
	}
	return jsDistance(row(p), row(q), -1, -1)
}

// coVocab is the fuzz target's tag universe: tags that are byte prefixes
// of one another ("a" < "a+b" < "ab" < "abc"), and multi-byte UTF-8, which
// sorts byte-wise after every ASCII tag.
var coVocab = []string{"a", "ab", "abc", "a+b", "b", "z", "é", "éa", "日", "日本", "ÿ", "zz"}

// FuzzSimilarityMatchesReference feeds generated pair counts — count ties,
// fractional counts, zero counts, tags with no pairs at all, tags whose
// only co-tag is their partner — through CoIndex, split over one to three
// snapshots like a sharded tracker's, and requires every pair's Similarity,
// asked either way round, to equal the string-keyed reference bit for bit.
// The reference is asked in tag-string order, as the engine asked it.
func FuzzSimilarityMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 1, 2, 0, 2, 2, 1, 2, 2, 3, 4, 1})
	f.Add([]byte{7, 8, 3, 9, 10, 5, 6, 7, 1, 0, 3, 2, 0, 4, 2, 11, 5, 6})
	f.Add([]byte{1, 0, 0, 2, 3, 1, 4, 5, 7, 6, 7, 7, 8, 9, 1, 10, 11, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]uint32, len(coVocab))
		for i, tag := range coVocab {
			ids[i] = intern.Intern(tag)
		}
		// Triples (tag, tag, count); later duplicates overwrite earlier ones,
		// as a tracker holds each pair once.
		counts := map[Key]float64{}
		var order []Key
		for i := 0; i+2 < len(data); i += 3 {
			x, y := int(data[i])%len(coVocab), int(data[i+1])%len(coVocab)
			if x == y {
				continue
			}
			k := KeyFromIDs(ids[x], ids[y])
			if _, ok := counts[k]; !ok {
				order = append(order, k)
			}
			counts[k] = float64(data[i+2]%8) / 2
		}
		nsnaps := 1
		if len(data) > 0 {
			nsnaps += int(data[0]) % 3
		}
		snaps := make([][]PairCount, nsnaps)
		dists := map[string]map[string]float64{}
		for i, k := range order {
			c := counts[k]
			snaps[i%nsnaps] = append(snaps[i%nsnaps], PairCount{Key: k, Count: c})
			if c > 0 {
				t1, t2 := k.Tags()
				for _, d := range [][2]string{{t1, t2}, {t2, t1}} {
					if dists[d[0]] == nil {
						dists[d[0]] = map[string]float64{}
					}
					dists[d[0]][d[1]] = c
				}
			}
		}
		var ix CoIndex
		// Build twice: the second build must fully replace the first.
		ix.Build([][]PairCount{{{Key: KeyFromIDs(ids[0], ids[1]), Count: 9}}})
		ix.Build(snaps)
		for i, a := range coVocab {
			for j, b := range coVocab {
				if i == j {
					continue
				}
				want := refSimilarityFrom(dists, min(a, b), max(a, b))
				got := ix.Similarity(ids[i], ids[j])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Similarity(%q, %q) = %v (%#x), reference %v (%#x)\ncounts: %v",
						a, b, got, math.Float64bits(got), want, math.Float64bits(want), dists)
				}
			}
		}
	})
}

// TestCoIndexSimilarity drives the distribution path end to end: an
// unfiltered tracker's snapshot, indexed, scores two tags with the same
// company as identical and tags with disjoint company as dissimilar; a tag
// the window has never seen has no evidence and scores 0.
func TestCoIndexSimilarity(t *testing.T) {
	tr := NewShardedTracker(Config{Buckets: 24, Resolution: time.Hour, Shards: 2})
	// a and b share identical co-tag usage {x}; c co-occurs only with y.
	for i := 0; i < 5; i++ {
		ts := t0.Add(time.Duration(i) * time.Minute)
		tr.observe(ts, []string{"a", "x"}, nil)
		tr.observe(ts, []string{"b", "x"}, nil)
		tr.observe(ts, []string{"c", "y"}, nil)
	}
	var ix CoIndex
	ix.Build([][]PairCount{tr.AppendSnapshot(0, nil), tr.AppendSnapshot(1, nil)})
	a, b, c := intern.Intern("a"), intern.Intern("b"), intern.Intern("c")
	simAB, simAC := ix.Similarity(a, b), ix.Similarity(a, c)
	if math.Abs(simAB-1) > 1e-9 {
		t.Errorf("identical distributions similarity = %v, want 1", simAB)
	}
	if simAB <= simAC {
		t.Errorf("Similarity(a,b)=%v not greater than Similarity(a,c)=%v", simAB, simAC)
	}
	if got := ix.Similarity(a, intern.Intern("coindex-unseen")); got != 0 {
		t.Errorf("similarity to an unseen tag = %v, want 0", got)
	}
}
