package tier

import "testing"

// FuzzTierPromotion drives one Tail through an arbitrary interleaving of
// demotions, estimates, candidate reads, and removals decoded from the fuzz
// input, and checks the invariants promotion relies on:
//
//   - no operation panics, whatever the time sequence (backwards, jumps);
//   - an estimate read in the same generation as a demotion is at least the
//     demoted count (estimates are upper bounds, never under);
//   - candidates always carry estimates strictly above the floor.
func FuzzTierPromotion(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = append(seed, byte(i), 0xFF, byte(i*37), 1, 2, 3, 4, 5)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tl := New(Config{Epsilon: 0.05, Delta: 0.05, TopK: 8, Span: 1000})
		var buf []Candidate
		// Each op consumes 8 bytes: [op][now][key][count/floor][4 spare].
		for len(data) >= 8 {
			op, now := data[0]%4, int64(data[1])*250 // crosses generations
			key, amt := uint64(data[2]), uint64(data[3])
			data = data[8:]
			switch op {
			case 0:
				tl.Demote(now, key, amt)
				if amt > 0 {
					if est := estimate(tl, now, key); est < amt {
						t.Fatalf("estimate %d < just-demoted count %d (key %d, now %d)",
							est, amt, key, now)
					}
				}
			case 1:
				estimate(tl, now, key)
			case 2:
				buf = tl.AppendCandidates(now, amt, buf[:0])
				for _, c := range buf {
					if c.Est <= amt {
						t.Fatalf("candidate %d carries est %d <= floor %d", c.Key, c.Est, amt)
					}
				}
			case 3:
				tl.Remove(key)
			}
		}
		tl.Stats()
	})
}
