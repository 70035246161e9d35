package enblogue_test

import (
	"fmt"
	"testing"

	"enblogue"
	"enblogue/internal/stream"
)

// TestRankingsIndependentOfDocumentRate checks that whether a pair is
// scored depends on event time alone: interleaving filler documents — one
// fresh tag each, stamped with the preceding document's time — changes how
// many documents arrive between ticks but forms no pair and never reaches
// the seed set, so the published rankings must not move. Fillers start
// after the seed warm-up, which is the one document-count rule left.
func TestRankingsIndependentOfDocumentRate(t *testing.T) {
	const from, fillers = 300, 40
	modes := []struct {
		name string
		opts []enblogue.Option
	}{
		{"default", nil},
		{"dist", []enblogue.Option{enblogue.WithDistributionMode()}},
	}
	for name, items := range equivWorkloads(t) {
		padded := make([]*stream.Item, 0, len(items)+fillers*len(items))
		for i, it := range items {
			padded = append(padded, it)
			if i < from {
				continue
			}
			for j := 0; j < fillers; j++ {
				padded = append(padded, &stream.Item{
					Time: it.Time,
					Tags: []string{fmt.Sprintf("filler-%s-%d-%d", name, i, j)},
				})
			}
		}
		for _, m := range modes {
			want := consumeSerial(items, 2, m.opts...)
			got := consumeSerial(padded, 2, m.opts...)
			if countTopics(want) == 0 {
				t.Fatalf("%s/%s: no topics ranked; the comparison would pin nothing", name, m.name)
			}
			if g, w := pairOrderDigest(got), pairOrderDigest(want); g != w {
				t.Errorf("%s/%s: pair-order digest with fillers = %s, without = %s", name, m.name, g, w)
			}
			if g, w := rankingDigest(got), rankingDigest(want); g != w {
				t.Errorf("%s/%s: ranking digest with fillers = %s, without = %s", name, m.name, g, w)
			}
		}
	}
}
