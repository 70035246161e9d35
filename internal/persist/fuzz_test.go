package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
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
	f.Add(snapshotBytes(cfg, &st))
	// A pair window whose total is not the sum of its counts.
	f.Add(corruptPairWindow(f, cfg, func(w *pairs.PairWindow) { w.Total++ }))
	// And structured near-misses: truncations and header damage.
	f.Add(oversizedSnapshot(f))
	f.Add(data[:len(data)/2])
	f.Add(data[:9])
	f.Add([]byte("ENBSNAP1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzSnapshot(t, b, cfg)
		// Most mutations only break the checksum; the same bytes with it
		// repaired reach the body's validation and the restore.
		if len(b) >= 8 {
			body := b[: len(b)-8 : len(b)-8]
			fuzzSnapshot(t, binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crcTable)), cfg)
		}
	})
}

// fuzzSnapshot checks one input of FuzzSnapshotDecode; cfg is the engine
// that restores what decodes under its own fingerprint.
func fuzzSnapshot(t *testing.T, b []byte, cfg core.Config) {
	d, err := decodeClaimed(b)
	if err != nil {
		return
	}
	// A successfully decoded snapshot must also materialize without
	// panicking: every index was validated during decode, and the
	// decoder recorded exactly one key per key materialize fills.
	st := d.materialize()
	visits := 0
	forEachKey(&st, func(*pairs.Key) { visits++ })
	if visits != len(d.keys) {
		t.Fatalf("decoded %d keys for %d key slots", len(d.keys), visits)
	}
	// Recovery restores every snapshot that decodes under the engine's
	// own fingerprint: the restore may refuse it, never panic.
	if claimed(b) == fingerprintOf(cfg) {
		e := core.New(cfg)
		defer e.Close()
		e.RestoreState(st) //nolint:errcheck // refusal is fine; a panic is not
	}
}

// claimed returns the fingerprint b embeds.
func claimed(b []byte) fingerprint {
	r := &reader{b: b, off: len(snapMagic) + 4}
	return r.fingerprint()
}

// decodeClaimed decodes b against the fingerprint b itself embeds, so the
// fingerprint check passes and the body is decoded and validated.
func decodeClaimed(b []byte) (*decodedSnap, error) {
	return decodeSnapshot(b, claimed(b))
}

// walSamples are the encoder-side seeds of both WAL fuzz targets: the
// field shapes, every escape appendJSONString writes, and invalid UTF-8.
var walSamples = []*stream.Item{
	{Time: time.Unix(0, 1234567890).UTC()},
	{Time: time.Unix(1700000000, 0).UTC(), DocID: "doc-1", Tags: []string{"a", "b"},
		Entities: []string{"Athens"}, Text: "quote \" and \\ and \n", Source: "feed"},
	{Time: time.Unix(0, -1).UTC(), Tags: []string{"", "\t\r\x00\x1f"}, Text: "\x01\x7f"},
	{Time: time.Unix(0, 5).UTC(), DocID: "\xff", Tags: []string{"a\xff", "\xc3"}, Source: "\xe2\x82"},
}

func FuzzWALDecode(f *testing.F) {
	for i, it := range walSamples {
		f.Add(appendWALRecord(nil, int64(i+1), it))
	}
	f.Add(appendTickRecord(nil, 0, time.Unix(0, 1234567890).UTC()))
	f.Add(appendTickRecord(nil, 42, time.Unix(1700000000, 7).UTC()))
	f.Add([]byte(`{"seq":-1,"tick":5}`))
	f.Add([]byte(`{"seq":3,"tick":5,"tags":["a"]}`))
	f.Add([]byte(`{"seq":0}`))
	f.Add([]byte(`{"seq":1,"t":"not a number"}`))
	f.Add([]byte(`{"seq":1,"t":01}`))
	f.Add([]byte(`{"seq":1,"t":2,"tags":[]}`))
	f.Add([]byte(`{"seq":1,"t":2,"id":"\u0041"}`))
	f.Add([]byte(`{"seq":1,"t":2,"id":"\u000a"}`))
	f.Add([]byte(`{"seq":1,"t":2,"id":"a\`))
	f.Add([]byte(`{`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeWALLine(line)
		if err != nil {
			return
		}
		// The decoder accepts the encoders' grammar only, so an accepted
		// line re-encodes to exactly its own bytes.
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
		if want := bytes.TrimSpace(line); !bytes.Equal(bytes.TrimSpace(re), want) {
			t.Fatalf("accepted line does not re-encode to itself:\n line %q\n re   %q", want, re)
		}
	})
}

// FuzzWALRoundTrip builds records from fuzzed fields, arbitrary bytes
// included, and requires decode(encode(record)) to give the record back.
func FuzzWALRoundTrip(f *testing.F) {
	for i, it := range walSamples {
		var tag1, tag2, ent string
		if len(it.Tags) > 0 {
			tag1 = it.Tags[0]
		}
		if len(it.Tags) > 1 {
			tag2 = it.Tags[1]
		}
		if len(it.Entities) > 0 {
			ent = it.Entities[0]
		}
		f.Add(uint32(i), it.Time.UnixNano(), it.DocID, tag1, tag2, ent, it.Text, it.Source)
	}

	f.Fuzz(func(t *testing.T, seq uint32, nanos int64, id, tag1, tag2, ent, text, src string) {
		it := &stream.Item{Time: nanoTime(nanos), DocID: id, Text: text, Source: src}
		if tag1 != "" || tag2 != "" {
			it.Tags = []string{tag1, tag2}
		}
		if ent != "" {
			it.Entities = []string{ent}
		}
		line := appendWALRecord(nil, int64(seq)+1, it)
		rec, err := decodeWALLine(line)
		if err != nil {
			t.Fatalf("decode of encoded document: %v (line %q)", err, line)
		}
		if rec.seq != int64(seq)+1 || !reflect.DeepEqual(rec.item, it) {
			t.Fatalf("document round trip:\n got  seq %d %+v\n want seq %d %+v", rec.seq, rec.item, int64(seq)+1, it)
		}

		tick := appendTickRecord(nil, int64(seq), nanoTime(nanos))
		rec, err = decodeWALLine(tick)
		if err != nil || rec.item != nil || rec.seq != int64(seq) || rec.tick.UnixNano() != nanos {
			t.Fatalf("tick round trip: %+v, err %v (line %q)", rec, err, tick)
		}
	})
}
