package sketch

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// count returns key's estimated count and whether the summary tracks it.
func count(tk *TopKU64, key uint64) (uint64, bool) {
	i, ok := tk.index[key]
	if !ok {
		return 0, false
	}
	return tk.entries[i].Count, true
}

// entries returns the tracked entries sorted by estimated count
// descending, ties broken by key.
func entries(tk *TopKU64) []EntryU64 {
	out := append([]EntryU64(nil), tk.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func TestTopKU64WeightedExactUnderCapacity(t *testing.T) {
	tk := NewTopKU64(8)
	tk.Add(7, 10)
	tk.Add(3, 4)
	tk.Add(7, 5)
	if got, ok := count(tk, 7); !ok || got != 15 {
		t.Errorf("Count(7) = %d,%v want 15,true", got, ok)
	}
	if tk.Len() != 2 {
		t.Errorf("Len = %d, want 2", tk.Len())
	}
	es := entries(tk)
	if es[0].Key != 7 || es[0].Count != 15 || es[0].Error != 0 {
		t.Errorf("top entry = %+v, want {7 15 0}", es[0])
	}
}

func TestTopKU64EvictionInheritsMinimum(t *testing.T) {
	tk := NewTopKU64(2)
	tk.Add(1, 10)
	tk.Add(2, 3)
	tk.Add(9, 4) // evicts key 2 (min, count 3): 9 gets 3+4 with error 3
	if tk.Contains(2) {
		t.Error("evicted key 2 still tracked")
	}
	if got, _ := count(tk, 9); got != 7 {
		t.Errorf("Count(9) = %d, want 7", got)
	}
	es := entries(tk)
	if es[1].Key != 9 || es[1].Error != 3 {
		t.Errorf("newcomer entry = %+v, want Error 3", es[1])
	}
}

// The Space-Saving summary surfaces the heavy keys of a noisy stream.
func TestTopKFindsHeavyHitters(t *testing.T) {
	const heavy1, heavy2 = 1, 2
	tk := NewTopKU64(20)
	rng := rand.New(rand.NewSource(1))
	// Two heavy keys among uniform noise.
	for i := 0; i < 20000; i++ {
		switch {
		case i%4 == 0:
			tk.Add(heavy1, 1)
		case i%5 == 0:
			tk.Add(heavy2, 1)
		default:
			tk.Add(uint64(1000+rng.Intn(5000)), 1)
		}
	}
	es := entries(tk)
	if es[0].Key != heavy1 || es[1].Key != heavy2 {
		t.Errorf("top keys = %d, %d; want %d, %d", es[0].Key, es[1].Key, heavy1, heavy2)
	}
	if tk.Contains(999) {
		t.Error("absent key reported as tracked")
	}
}

func TestTopKU64DeterministicEviction(t *testing.T) {
	// All counts tied: the victim must be the smallest key, every time.
	for run := 0; run < 20; run++ {
		tk := NewTopKU64(4)
		for _, k := range []uint64{40, 10, 30, 20} {
			tk.Add(k, 5)
		}
		tk.Add(99, 1)
		if tk.Contains(10) {
			t.Fatalf("run %d: tie-break evicted some key other than 10", run)
		}
	}
}

func TestTopKU64Remove(t *testing.T) {
	tk := NewTopKU64(4)
	for _, k := range []uint64{1, 2, 3, 4} {
		tk.Add(k, k)
	}
	if !tk.Remove(2) || tk.Remove(2) {
		t.Fatal("Remove(2) should succeed once")
	}
	if tk.Len() != 3 || tk.Contains(2) {
		t.Fatalf("after Remove: Len=%d Contains(2)=%v", tk.Len(), tk.Contains(2))
	}
	// Remaining keys still reachable through the index after swap-remove.
	for _, k := range []uint64{1, 3, 4} {
		if got, ok := count(tk, k); !ok || got != k {
			t.Errorf("Count(%d) = %d,%v after Remove", k, got, ok)
		}
	}
	tk.Reset()
	if tk.Len() != 0 || tk.Contains(1) {
		t.Error("Reset did not empty the summary")
	}
}

// Property: weighted Space-Saving counts are upper bounds on true mass and
// Count - Error is a lower bound.
func TestTopKU64Bounds(t *testing.T) {
	f := func(raw []uint8) bool {
		tk := NewTopKU64(8)
		truth := map[uint64]uint64{}
		for _, r := range raw {
			k := uint64(r % 32)
			w := uint64(r%3) + 1
			tk.Add(k, w)
			truth[k] += w
		}
		for _, e := range entries(tk) {
			n := truth[e.Key]
			if e.Count < n {
				return false
			}
			if e.Count-e.Error > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWindowedCountMinRotation(t *testing.T) {
	w := NewWindowedCountMinWithError(0.01, 0.01)
	w.Advance(10)
	w.AddU64(42, 100)
	if got := w.EstimateU64(42); got < 100 {
		t.Fatalf("estimate in-generation = %d, want ≥ 100", got)
	}
	// One step: mass moves to prev, still visible.
	w.Advance(11)
	if got := w.EstimateU64(42); got < 100 {
		t.Fatalf("estimate after one rotation = %d, want ≥ 100", got)
	}
	w.AddU64(42, 7)
	if got := w.EstimateU64(42); got < 107 {
		t.Fatalf("estimate cur+prev = %d, want ≥ 107", got)
	}
	// Second step: the original 100 ages out, the 7 survives.
	w.Advance(12)
	if got := w.EstimateU64(42); got < 7 || got >= 100 {
		t.Fatalf("estimate after aging = %d, want in [7, 100)", got)
	}
	// Jump ≥ 2 spans: everything decays.
	w.Advance(20)
	if got := w.EstimateU64(42); got != 0 {
		t.Fatalf("estimate after jump = %d, want 0", got)
	}
	if w.Mass() != 0 {
		t.Fatalf("Mass after jump = %d, want 0", w.Mass())
	}
}

func TestWindowedCountMinBackwardsAdvanceIgnored(t *testing.T) {
	w := NewWindowedCountMinWithError(0.01, 0.01)
	w.Advance(5)
	w.AddU64(1, 50)
	w.Advance(3) // stale reader must not clear newer mass
	if got := w.EstimateU64(1); got < 50 {
		t.Errorf("estimate after backwards Advance = %d, want ≥ 50", got)
	}
	if w.gen != 5 {
		t.Errorf("gen = %d, want 5", w.gen)
	}
}

// linearTopK is the slice-and-scan Space-Saving summary TopKU64 replaced:
// entries in insertion slots, the at-capacity victim found by a linear
// scan for the (Count, Key) minimum. It is the model TestTopKU64MatchesLinear
// checks the heap against.
type linearTopK struct {
	k       int
	entries []EntryU64
}

func (t *linearTopK) add(key, w uint64) {
	for i := range t.entries {
		if t.entries[i].Key == key {
			t.entries[i].Count += w
			return
		}
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, EntryU64{Key: key, Count: w})
		return
	}
	m := 0
	for i := 1; i < len(t.entries); i++ {
		e, min := &t.entries[i], &t.entries[m]
		if e.Count < min.Count || (e.Count == min.Count && e.Key < min.Key) {
			m = i
		}
	}
	old := t.entries[m]
	t.entries[m] = EntryU64{Key: key, Count: old.Count + w, Error: old.Count}
}

func (t *linearTopK) remove(key uint64) bool {
	for i := range t.entries {
		if t.entries[i].Key == key {
			last := len(t.entries) - 1
			t.entries[i] = t.entries[last]
			t.entries = t.entries[:last]
			return true
		}
	}
	return false
}

// Property: under any Add/Remove sequence — tiny key space and weights, so
// count ties are the rule — the heap holds exactly the linear model's
// entries: the same keys, each with the same Count and Error. The heap
// invariant holds after every operation.
func TestTopKU64MatchesLinear(t *testing.T) {
	f := func(k uint8, ops []uint16) bool {
		tk := NewTopKU64(int(k%8) + 1)
		model := &linearTopK{k: tk.k}
		for _, op := range ops {
			key, w := uint64(op%24), uint64(op>>5)%3+1
			if op>>14 == 3 { // a quarter of the ops remove
				if tk.Remove(key) != model.remove(key) {
					return false
				}
			} else {
				tk.Add(key, w)
				model.add(key, w)
			}
			for i := 1; i < tk.Len(); i++ {
				if tk.less(i, (i-1)/2) {
					return false
				}
			}
		}
		if tk.Len() != len(model.entries) {
			return false
		}
		for _, want := range model.entries {
			i, ok := tk.index[want.Key]
			if !ok || tk.At(int(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
