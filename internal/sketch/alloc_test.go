package sketch

import "testing"

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestSketchHashZeroAlloc pins the tail tier's hash at zero allocations
// per call: it runs once per sketch row touched on the demotion path.
func TestSketchHashZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		sink += hashU64(0x1234_5678_9abc_def0, 3)
	}); n != 0 {
		t.Errorf("hashU64 allocates %.1f per call, want 0", n)
	}
	_ = sink
}

// TestCountMinIngestZeroAlloc pins the sketch ingest path at zero
// allocations per AddU64/CountU64.
func TestCountMinIngestZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	c := NewCountMin(4, 1024)
	var sink uint64
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

func BenchmarkCountMinAddU64(b *testing.B) {
	c := NewCountMin(4, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddU64(uint64(i%1024), 1)
	}
}
