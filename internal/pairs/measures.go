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
