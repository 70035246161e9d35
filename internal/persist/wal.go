package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"enblogue/internal/stream"
)

// The write-ahead log is JSONL and records the engine machine's two inputs.
// A consumed document is
//
//	{"seq":N,"t":<unix nanos>,"id":"...","tags":[...],"entities":[...],"text":"...","src":"..."}
//
// with empty fields omitted; seq is the document's 1-based stream position
// (DocsProcessed after counting it), and document records within a segment
// are strictly seq-ascending and contiguous. A forced tick is
//
//	{"seq":N,"tick":<unix nanos>}
//
// where N is the number of documents consumed before it. The append
// encoder is hand-rolled so the steady-state ingest path allocates nothing
// per document: it appends into a reusable buffer that is handed to the
// file in a single Write.

// appendWALRecord appends one record line (terminating newline included).
func appendWALRecord(b []byte, seq int64, it *stream.Item) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, it.Time.UnixNano(), 10)
	if it.DocID != "" {
		b = append(b, `,"id":`...)
		b = appendJSONString(b, it.DocID)
	}
	b = appendStrArray(b, `,"tags":`, it.Tags)
	b = appendStrArray(b, `,"entities":`, it.Entities)
	if it.Text != "" {
		b = append(b, `,"text":`...)
		b = appendJSONString(b, it.Text)
	}
	if it.Source != "" {
		b = append(b, `,"src":`...)
		b = appendJSONString(b, it.Source)
	}
	return append(b, "}\n"...)
}

// appendTickRecord appends one forced-tick record line.
func appendTickRecord(b []byte, seq int64, t time.Time) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"tick":`...)
	b = strconv.AppendInt(b, t.UnixNano(), 10)
	return append(b, "}\n"...)
}

func appendStrArray(b []byte, prefix string, vals []string) []byte {
	if len(vals) == 0 {
		return b
	}
	b = append(b, prefix...)
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, v)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Only the characters
// JSON requires escaped are escaped (backslash, quote, controls); valid
// UTF-8 passes through byte-for-byte, and invalid UTF-8 is passed through
// too — encoding/json on the decode side replaces it, which is acceptable
// for tag text and keeps the encoder allocation-free.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// walRecord is the decode-side shape of one WAL line. Tick is set only on
// a forced-tick record.
type walRecord struct {
	Seq      int64    `json:"seq"`
	T        int64    `json:"t"`
	ID       string   `json:"id"`
	Tags     []string `json:"tags"`
	Entities []string `json:"entities"`
	Text     string   `json:"text"`
	Src      string   `json:"src"`
	Tick     *int64   `json:"tick"`
}

// walEntry is one decoded WAL record: a document (item set) or a forced
// tick at tick (item nil).
type walEntry struct {
	seq  int64
	item *stream.Item
	tick time.Time
}

// decodeWALLine parses one WAL line. Arbitrary bytes return an error, never
// panic. Replay is not a hot path, so the standard JSON decoder is fine
// here.
func decodeWALLine(line []byte) (walEntry, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return walEntry{}, fmt.Errorf("persist: empty WAL line")
	}
	var rec walRecord
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return walEntry{}, fmt.Errorf("persist: bad WAL line: %w", err)
	}
	if rec.Tick != nil {
		// A tick follows its seq-th document, so seq 0 (a tick before any
		// document) is valid; a tick carries no document fields.
		if rec.Seq < 0 || rec.T != 0 || rec.ID != "" || rec.Tags != nil ||
			rec.Entities != nil || rec.Text != "" || rec.Src != "" {
			return walEntry{}, fmt.Errorf("persist: bad WAL line: tick record with seq %d or document fields", rec.Seq)
		}
		return walEntry{seq: rec.Seq, tick: nanoTime(*rec.Tick)}, nil
	}
	if rec.Seq <= 0 {
		return walEntry{}, fmt.Errorf("persist: bad WAL line: seq %d", rec.Seq)
	}
	it := &stream.Item{
		Time:     nanoTime(rec.T),
		DocID:    rec.ID,
		Tags:     rec.Tags,
		Entities: rec.Entities,
		Text:     rec.Text,
		Source:   rec.Src,
	}
	return walEntry{seq: rec.Seq, item: it}, nil
}

// nanoTime converts unix nanos to a UTC time.Time. The engine compares
// event times by wall clock only, so the location-normalized round trip is
// exact for everything the engine observes.
func nanoTime(n int64) time.Time { return time.Unix(0, n).UTC() }
