package sketch

import (
	"hash/fnv"
	"testing"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestSketchHashZeroAlloc pins the hand-rolled hash paths at zero
// allocations per call. The previous hash64 used fnv.New64a + Write, which
// allocated twice per call — two allocations per sketch row touched, on
// what is now the tail tier's demotion path.
func TestSketchHashZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	key := "some-representative-tag"
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		sink += hash64(key, 3)
	}); n != 0 {
		t.Errorf("hash64 allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		sink += hashU64(0x1234_5678_9abc_def0, 3)
	}); n != 0 {
		t.Errorf("hashU64 allocates %.1f per call, want 0", n)
	}
	_ = sink
}

// TestCountMinIngestZeroAlloc pins the sketch ingest paths — string and
// uint64-keyed — at zero allocations per Add/Count.
func TestCountMinIngestZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	c := NewCountMin(4, 1024)
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		c.Add("steady-state-tag", 1)
		sink += c.Count("steady-state-tag")
	}); n != 0 {
		t.Errorf("string Add+Count allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.AddU64(0xfeed_beef, 1)
		sink += c.CountU64(0xfeed_beef)
	}); n != 0 {
		t.Errorf("AddU64+CountU64 allocates %.1f per call, want 0", n)
	}
	_ = sink
}

// TestTopKU64SteadyStateZeroAlloc pins the weighted Space-Saving summary at
// zero allocations once warm, including at capacity where every new key
// evicts the minimum into a recycled slot.
func TestTopKU64SteadyStateZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	tk := NewTopKU64(64)
	for i := uint64(0); i < 64; i++ {
		tk.Add(i, i+1)
	}
	var next uint64 = 1000
	if n := testing.AllocsPerRun(200, func() {
		tk.Add(next, 2) // miss: evicts the minimum
		tk.Add(5, 1)    // hit
		next++
	}); n != 0 {
		t.Errorf("TopKU64.Add allocates %.1f per call at capacity, want 0", n)
	}
}

// TestHash64MatchesStdlibFNV proves the hand-rolled loop is bit-identical
// to the hash/fnv implementation it replaced, so existing sketch contents
// and row placements are unchanged.
func TestHash64MatchesStdlibFNV(t *testing.T) {
	ref := func(s string, salt uint64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(salt >> (8 * i))
		}
		h.Write(b[:])
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, s := range []string{"", "a", "sigmod", "αθήνα", "tag-with-a-longer-name"} {
		for _, salt := range []uint64{0, 1, 2, 0x9e3779b97f4a7c15} {
			if got, want := hash64(s, salt), ref(s, salt); got != want {
				t.Errorf("hash64(%q, %#x) = %#x, want %#x", s, salt, got, want)
			}
		}
	}
}

func BenchmarkCountMinAddU64(b *testing.B) {
	c := NewCountMin(4, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddU64(uint64(i%1024), 1)
	}
}
