package rank_test

import (
	"fmt"

	"enblogue/internal/rank"
)

func ExampleDiff() {
	prev := rank.List{{ID: "a", Score: 3}, {ID: "b", Score: 2}}
	cur := rank.List{{ID: "b", Score: 5}, {ID: "c", Score: 1}}
	for _, m := range rank.Diff(prev, cur) {
		fmt.Printf("%s: %d -> %d\n", m.ID, m.From, m.To)
	}
	// Output:
	// b: 1 -> 0
	// c: -1 -> 1
	// a: 0 -> -1
}

func ExampleKendallTau() {
	a := rank.List{{ID: "x", Score: 3}, {ID: "y", Score: 2}, {ID: "z", Score: 1}}
	reversed := rank.List{{ID: "z", Score: 3}, {ID: "y", Score: 2}, {ID: "x", Score: 1}}
	fmt.Printf("identical: %.0f, reversed: %.0f\n",
		rank.KendallTau(a, a), rank.KendallTau(a, reversed))
	// Output:
	// identical: 1, reversed: -1
}
