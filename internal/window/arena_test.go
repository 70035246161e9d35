package window

import (
	"math/rand"
	"testing"
	"time"
)

var arT0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// live returns the number of allocated, unreleased slots.
func live(a *CounterArena) int { return len(a.heads) - len(a.free) }

// The arena must reproduce the naive per-event counter exactly under an
// arbitrary interleaving of increments, reads, out-of-order timestamps and
// full-window jumps, slot by slot.
func TestCounterArenaMatchesCounter(t *testing.T) {
	const nbuckets = 12
	res := time.Hour
	a := NewCounterArena(nbuckets, res)
	rng := rand.New(rand.NewSource(3))

	const slots = 8
	refs := make([]*naiveCounter, slots)
	ids := make([]int32, slots)
	for i := range refs {
		refs[i] = &naiveCounter{n: nbuckets, res: res}
		ids[i] = a.Alloc()
	}
	now := arT0
	for step := 0; step < 5000; step++ {
		i := rng.Intn(slots)
		// Mostly forward movement, occasionally out-of-order or a big jump.
		switch rng.Intn(10) {
		case 0:
			now = now.Add(time.Duration(nbuckets+2) * res) // full-window jump
		case 1:
			now = now.Add(-3 * res) // out of order
		default:
			now = now.Add(time.Duration(rng.Intn(90)) * time.Minute)
		}
		refs[i].inc(now)
		a.Inc(ids[i], now)
		if step%37 == 0 {
			j := rng.Intn(slots)
			if got, want := a.ValueAt(ids[j], now), refs[j].valueAt(now); got != want {
				t.Fatalf("step %d slot %d: Value = %v, want %v", step, j, got, want)
			}
		}
	}
	for i := range refs {
		if got, want := a.ValueAt(ids[i], now), refs[i].valueAt(now); got != want {
			t.Fatalf("slot %d: final Value = %v, want %v", i, got, want)
		}
		if got, want := a.Series(ids[i]), refs[i].series(); !equalSeries(got, want) {
			t.Fatalf("slot %d: Series = %v, want %v", i, got, want)
		}
	}
}

func TestCounterArenaAllocReleaseRecycles(t *testing.T) {
	a := NewCounterArena(4, time.Hour)
	s1 := a.Alloc()
	a.Inc(s1, arT0)
	a.Inc(s1, arT0)
	if got := a.ValueAt(s1, arT0); got != 2 {
		t.Fatalf("Value = %v, want 2", got)
	}
	a.Release(s1)
	if live(a) != 0 {
		t.Fatalf("live slots after release = %d, want 0", live(a))
	}
	s2 := a.Alloc()
	if s2 != s1 {
		t.Fatalf("expected slot reuse, got %d vs %d", s2, s1)
	}
	// The recycled slot must come back zeroed with no stale window head: an
	// increment far before the slot's former life must be accepted as the
	// new head (value 1, not 3, and not dropped as stale).
	a.Inc(s2, arT0.Add(-100*time.Hour))
	if got := a.ValueAt(s2, arT0.Add(-100*time.Hour)); got != 1 {
		t.Fatalf("recycled slot after old-time Inc = %v, want 1", got)
	}
	if live(a) != 1 {
		t.Fatalf("live slots = %d, want 1", live(a))
	}
}

func TestCounterArenaGrowth(t *testing.T) {
	a := NewCounterArena(6, time.Minute)
	var ids []int32
	for i := 0; i < 100; i++ {
		id := a.Alloc()
		ids = append(ids, id)
		for j := 0; j <= i%5; j++ {
			a.Inc(id, arT0)
		}
	}
	for i, id := range ids {
		if got, want := a.ValueAt(id, arT0), float64(i%5+1); got != want {
			t.Fatalf("slot %d: Value = %v, want %v", i, got, want)
		}
	}
	if live(a) != 100 {
		t.Fatalf("live slots = %d", live(a))
	}
}

func TestCounterArenaPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-buckets":    func() { NewCounterArena(0, time.Hour) },
		"zero-resolution": func() { NewCounterArena(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkCounterArenaInc(b *testing.B) {
	a := NewCounterArena(48, time.Hour)
	const slots = 1024
	ids := make([]int32, slots)
	for i := range ids {
		ids[i] = a.Alloc()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Inc(ids[i%slots], arT0.Add(time.Duration(i)*time.Second))
	}
}
