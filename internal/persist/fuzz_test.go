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
	f.Add(appendTickRecord(nil, 0, time.Unix(0, 1234567890).UTC()))
	f.Add(appendTickRecord(nil, 42, time.Unix(1700000000, 7).UTC()))
	f.Add([]byte(`{"seq":-1,"tick":5}`))
	f.Add([]byte(`{"seq":3,"tick":5,"tags":["a"]}`))
	f.Add([]byte(`{"seq":0}`))
	f.Add([]byte(`{"seq":1,"t":"not a number"}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeWALLine(line)
		if err != nil {
			return
		}
		// Accepted records must survive the engine's own round trip: the
		// re-encoded line decodes to the same record kind and sequence
		// number, and a tick to the same instant.
		var re []byte
		if rec.item == nil {
			if rec.seq < 0 {
				t.Fatalf("decode accepted a tick with negative seq %d", rec.seq)
			}
			re = appendTickRecord(nil, rec.seq, rec.tick)
		} else {
			if rec.seq <= 0 {
				t.Fatalf("decode accepted a document with non-positive seq %d", rec.seq)
			}
			re = appendWALRecord(nil, rec.seq, rec.item)
		}
		rec2, err := decodeWALLine(re)
		if err != nil || rec2.seq != rec.seq || (rec2.item == nil) != (rec.item == nil) || !rec2.tick.Equal(rec.tick) {
			t.Fatalf("re-encode of accepted record failed: %+v -> %+v, err %v", rec, rec2, err)
		}
	})
}
