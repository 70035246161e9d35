// Package pairs implements stage (ii) of the paper — correlation tracking:
// "For each tag pair that contains at least one seed tag, we keep track of
// their correlations. For each such pair, we continuously monitor the amount
// of documents that are annotated with both tags."
//
// The package provides canonical pair keys, windowed co-occurrence counting
// with candidate generation from a seed predicate, a family of set-overlap
// correlation measures, and the information-theoretic alternative the paper
// mentions (relative entropy over tag-usage distributions).
package pairs

import (
	"fmt"
	"math"
	"sort"
)

// Measure identifies a correlation measure over windowed counts: nab
// documents carrying both tags, na and nb documents carrying each tag, and
// n total documents in the window. All measures return values in [0, 1]
// (degenerate inputs return 0) so prediction errors are comparable across
// measures.
type Measure int

const (
	// Jaccard is |A∩B| / |A∪B|, the default overlap measure.
	Jaccard Measure = iota
	// Dice is 2|A∩B| / (|A|+|B|).
	Dice
	// Cosine is |A∩B| / sqrt(|A|·|B|).
	Cosine
	// NPMI is normalised pointwise mutual information mapped to [0,1]:
	// (pmi / -log p(a,b) + 1) / 2.
	NPMI
	// Overlap is |A∩B| / min(|A|,|B|) (Szymkiewicz–Simpson).
	Overlap
	// Confidence is max(|A∩B|/|A|, |A∩B|/|B|): the stronger of the two
	// association-rule confidences.
	Confidence
)

// measures lists the implemented measures; used by ablation sweeps.
var measureNames = map[Measure]string{
	Jaccard:    "jaccard",
	Dice:       "dice",
	Cosine:     "cosine",
	NPMI:       "npmi",
	Overlap:    "overlap",
	Confidence: "confidence",
}

// AllMeasures returns every implemented measure, in declaration order.
func AllMeasures() []Measure {
	return []Measure{Jaccard, Dice, Cosine, NPMI, Overlap, Confidence}
}

// String returns the measure name.
func (m Measure) String() string {
	if s, ok := measureNames[m]; ok {
		return s
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// ParseMeasure resolves a measure by name.
func ParseMeasure(name string) (Measure, error) {
	//enblogue:unordered linear search of a bijective name table; at most one entry matches, so visit order cannot change the result
	for m, s := range measureNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("pairs: unknown measure %q", name)
}

// ComputeJaccard is Compute specialised to the default measure, carved out
// so the per-pair evaluation loop can inline it — the full Compute's switch
// is over the inlining budget. Results are identical to
// Jaccard.Compute(nab, na, nb, n), clamps included.
func ComputeJaccard(nab, na, nb, n float64) float64 {
	if nab < 0 || na <= 0 || nb <= 0 {
		return 0
	}
	if nab > na {
		nab = na
	}
	if nab > nb {
		nab = nb
	}
	if n > 0 && nab > n {
		nab = n
	}
	union := na + nb - nab
	if union <= 0 {
		return 0
	}
	return nab / union
}

// Compute evaluates the measure on windowed counts. Counts are clamped to
// consistency before use: nab may not exceed na, nb, or n.
func (m Measure) Compute(nab, na, nb, n float64) float64 {
	if m == Jaccard {
		return ComputeJaccard(nab, na, nb, n)
	}
	if nab < 0 || na <= 0 || nb <= 0 {
		return 0
	}
	if nab > na {
		nab = na
	}
	if nab > nb {
		nab = nb
	}
	if n > 0 && nab > n {
		nab = n
	}
	switch m {
	case Dice:
		return 2 * nab / (na + nb)
	case Cosine:
		return nab / math.Sqrt(na*nb)
	case NPMI:
		if n <= 0 || nab == 0 {
			return 0
		}
		pab := nab / n
		pa, pb := na/n, nb/n
		if pab >= 1 {
			return 1
		}
		pmi := math.Log(pab / (pa * pb))
		npmi := pmi / -math.Log(pab) // in [-1, 1]
		return (npmi + 1) / 2
	case Overlap:
		return nab / math.Min(na, nb)
	case Confidence:
		return math.Max(nab/na, nab/nb)
	default:
		return 0
	}
}

// jsDistance returns the Jensen–Shannon distance (square root of the JS
// divergence, base-2) between two count maps, with key exp treated as
// absent from p and key exq as absent from q: a symmetric, bounded [0, 1]
// relative-entropy similarity. The exclusions are how DistTracker leaves
// each pair member out of its partner's co-tag distribution without
// copying either map per pair per tick — the inputs are shared snapshot
// maps and are never mutated. The result is deterministic in the map
// contents (summation runs in sorted key order).
func jsDistance(p, q map[string]float64, exp, exq string) float64 {
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
// keys, honouring the per-map exclusions. It needs no dedup map: a key
// from q is skipped when p already contributed it. Sorting makes the
// floating-point accumulation over it reproducible: Go map iteration order
// is randomised per run, and summation order changes results in the last
// ulps — enough to flip a zero prediction error into a positive one.
func unionSupportExcluding(p, q map[string]float64, exp, exq string) []string {
	support := make([]string, 0, len(p)+len(q))
	//enblogue:unordered collect-then-sort: support is sorted before returning
	for k, v := range p {
		if v > 0 && k != exp {
			support = append(support, k)
		}
	}
	//enblogue:unordered collect-then-sort: support is sorted before returning
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
