package persist

import (
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// Decode-side fuzzing: snapshots and WAL lines arrive from disk, possibly
// torn, truncated, or bit-rotted, and the decoders promise an error —
// never a panic, never unbounded allocation from a hostile length field —
// on arbitrary input. Seeds are real encoder output so the fuzzer starts
// inside the format and mutates outward across every validation branch.

func FuzzSnapshotDecode(f *testing.F) {
	data, _ := goldenState(1)
	f.Add(data)
	// A richer state: several ticks, decayed counters, a live ranking.
	cfg := testConfig(2)
	e := core.New(cfg)
	docs := testItems(f)
	e.ConsumeBatch(docs[:1200])
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	e.Close()
	f.Add(encodeSnapshot(cfg, &st))
	// And structured near-misses: truncations and header damage.
	f.Add(data[:len(data)/2])
	f.Add(data[:9])
	f.Add([]byte("ENBSNAP1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		// A successfully decoded snapshot must also materialize without
		// panicking: every index was validated during decode.
		_ = d.materialize()
	})
}

func FuzzWALDecode(f *testing.F) {
	samples := []*stream.Item{
		{Time: time.Unix(0, 1234567890).UTC()},
		{Time: time.Unix(1700000000, 0).UTC(), DocID: "doc-1", Tags: []string{"a", "b"},
			Entities: []string{"Athens"}, Text: "quote \" and \\ and \n", Source: "feed"},
	}
	for i, it := range samples {
		f.Add(appendWALRecord(nil, int64(i+1), it))
	}
	f.Add([]byte(`{"seq":0}`))
	f.Add([]byte(`{"seq":1,"t":"not a number"}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, line []byte) {
		seq, it, err := decodeWALLine(line)
		if err != nil {
			return
		}
		if seq <= 0 {
			t.Fatalf("decode accepted non-positive seq %d", seq)
		}
		if it == nil {
			t.Fatal("decode returned nil item without error")
		}
		// Accepted records must survive the engine's own round trip: the
		// re-encoded line decodes to the same sequence number.
		re := appendWALRecord(nil, seq, it)
		seq2, _, err := decodeWALLine(re)
		if err != nil || seq2 != seq {
			t.Fatalf("re-encode of accepted record failed: seq %d -> %d, err %v", seq, seq2, err)
		}
	})
}
