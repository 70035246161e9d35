// Package rank provides ranked-list diffing for the push front-end ("watch
// how the rankings for these topics changes with time"), and
// rank-correlation statistics used to quantify personalization effects
// (show case 3).
package rank

import (
	"sort"
)

// Entry is a scored, identified ranking candidate.
type Entry struct {
	ID    string
	Score float64
}

// List is a ranked list of entries, best first.
type List []Entry

// IDs returns the entry IDs in list order.
func (l List) IDs() []string {
	out := make([]string, len(l))
	for i, e := range l {
		out[i] = e.ID
	}
	return out
}

// Positions maps each ID to its 0-based rank.
func (l List) Positions() map[string]int {
	out := make(map[string]int, len(l))
	for i, e := range l {
		out[e.ID] = i
	}
	return out
}

// Move records one entry's rank change between two lists. From or To is -1
// when the entry is absent on that side.
type Move struct {
	ID   string
	From int
	To   int
}

// Diff reports, for every ID present in prev or cur, its rank transition —
// the data behind the front-end's live rank-change display. Unchanged ranks
// are omitted. Moves are ordered by To (entries leaving the list last).
func Diff(prev, cur List) []Move {
	pp := prev.Positions()
	cp := cur.Positions()
	var moves []Move
	for id, to := range cp {
		from, ok := pp[id]
		if !ok {
			from = -1
		}
		if from != to {
			moves = append(moves, Move{ID: id, From: from, To: to})
		}
	}
	for id, from := range pp {
		if _, ok := cp[id]; !ok {
			moves = append(moves, Move{ID: id, From: from, To: -1})
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		ti, tj := moves[i].To, moves[j].To
		if ti == -1 {
			ti = 1 << 30
		}
		if tj == -1 {
			tj = 1 << 30
		}
		if ti != tj {
			return ti < tj
		}
		return moves[i].ID < moves[j].ID
	})
	return moves
}

// Overlap returns |a ∩ b| / max(|a|, |b|): the fraction of shared IDs
// between two ranked lists; 1 when both are empty.
func Overlap(a, b List) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	bs := make(map[string]bool, len(b))
	for _, e := range b {
		bs[e.ID] = true
	}
	common := 0
	for _, e := range a {
		if bs[e.ID] {
			common++
		}
	}
	return float64(common) / float64(n)
}

// KendallTau returns the Kendall rank correlation coefficient between the
// orderings of the IDs common to both lists: 1 for identical order, -1 for
// reversed, 0 for uncorrelated. Lists sharing fewer than 2 IDs return 1
// (no discordance is observable).
func KendallTau(a, b List) float64 {
	bp := b.Positions()
	var common []string
	for _, e := range a {
		if _, ok := bp[e.ID]; ok {
			common = append(common, e.ID)
		}
	}
	n := len(common)
	if n < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// common is in a-order, so a ranks i before j.
			if bp[common[i]] < bp[common[j]] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	pairs := concordant + discordant
	return float64(concordant-discordant) / float64(pairs)
}
