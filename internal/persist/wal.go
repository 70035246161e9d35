package persist

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
// per document: it appends into the Store's reusable commit buffer, which
// reaches the file in one Write per commit. decodeWALLine is its exact
// inverse.

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
// JSON requires escaped are escaped (backslash, quote, controls); every
// other byte, invalid UTF-8 included, passes through unchanged, and
// decodeWALLine gives the same bytes back.
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

// walEntry is one decoded WAL record: a document (item set) or a forced
// tick at tick (item nil).
type walEntry struct {
	seq  int64
	item *stream.Item
	tick time.Time
}

// decodeWALLine parses one WAL line (surrounding whitespace, such as the
// terminating newline, is ignored). It is the exact inverse of
// appendWALRecord and appendTickRecord: it accepts their grammar only —
// fixed key order, empty fields omitted, integers in strconv form, and the
// escapes appendJSONString emits — so any line it accepts re-encodes to
// the same bytes. Strings are sliced out of one copy of the line; bytes
// outside the escapes pass through unchanged, invalid UTF-8 included.
// Arbitrary input returns an error, never panics.
func decodeWALLine(line []byte) (walEntry, error) {
	p := walParser{s: string(bytes.TrimSpace(line))}
	e, ok := p.record()
	if !ok {
		if p.s == "" {
			return walEntry{}, fmt.Errorf("persist: empty WAL line")
		}
		return walEntry{}, fmt.Errorf("persist: bad WAL line: %s at byte %d", p.err, p.pos)
	}
	return e, nil
}

// walParser is a cursor over one WAL line. Its methods report failure with
// ok false and leave the reason in err.
type walParser struct {
	s   string
	pos int
	err string
}

func (p *walParser) fail(why string) bool {
	p.err = why
	return false
}

// lit consumes the literal lit if the line continues with it.
func (p *walParser) lit(lit string) bool {
	if strings.HasPrefix(p.s[p.pos:], lit) {
		p.pos += len(lit)
		return true
	}
	return false
}

// record parses a whole line: a document or a forced-tick record.
func (p *walParser) record() (walEntry, bool) {
	var e walEntry
	if !p.lit(`{"seq":`) {
		return e, p.fail("want {\"seq\":")
	}
	var ok bool
	if e.seq, ok = p.int(); !ok {
		return e, false
	}
	if p.lit(`,"tick":`) {
		// A tick follows its seq-th document, so seq 0 (a tick before any
		// document) is valid.
		n, ok := p.int()
		if !ok || !p.end() {
			return e, false
		}
		if e.seq < 0 {
			return e, p.fail("negative tick seq")
		}
		e.tick = nanoTime(n)
		return e, true
	}
	if e.seq <= 0 {
		return e, p.fail("non-positive document seq")
	}
	if !p.lit(`,"t":`) {
		return e, p.fail("want \"t\"")
	}
	n, ok := p.int()
	if !ok {
		return e, false
	}
	it := &stream.Item{Time: nanoTime(n)}
	if p.lit(`,"id":`) && !p.field(&it.DocID) {
		return e, false
	}
	if p.lit(`,"tags":`) && !p.array(&it.Tags) {
		return e, false
	}
	if p.lit(`,"entities":`) && !p.array(&it.Entities) {
		return e, false
	}
	if p.lit(`,"text":`) && !p.field(&it.Text) {
		return e, false
	}
	if p.lit(`,"src":`) && !p.field(&it.Source) {
		return e, false
	}
	if !p.end() {
		return e, false
	}
	e.item = it
	return e, true
}

// end consumes the closing brace, which must end the line.
func (p *walParser) end() bool {
	if p.pos != len(p.s)-1 || p.s[p.pos] != '}' {
		return p.fail("want } at end of line")
	}
	p.pos++
	return true
}

// int parses a decimal int64 exactly as strconv.AppendInt writes it: an
// optional minus sign, no leading zeros, no "-0".
func (p *walParser) int() (int64, bool) {
	start := p.pos
	if p.pos < len(p.s) && p.s[p.pos] == '-' {
		p.pos++
	}
	digits := p.pos
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	num := p.s[start:p.pos]
	switch {
	case p.pos == digits:
		return 0, p.fail("want digits")
	case p.s[digits] == '0' && (p.pos-digits > 1 || digits > start):
		return 0, p.fail("non-canonical integer")
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, p.fail("integer out of range")
	}
	return n, true
}

// field parses an optional string field's value; the encoder omits empty
// ones, so an empty value is rejected.
func (p *walParser) field(dst *string) bool {
	v, ok := p.str()
	if !ok {
		return false
	}
	if v == "" {
		return p.fail("empty optional field")
	}
	*dst = v
	return true
}

// array parses a non-empty array of strings (the encoder omits empty
// arrays) into a slice of exactly its length.
func (p *walParser) array(dst *[]string) bool {
	if !p.lit("[") {
		return p.fail("want [")
	}
	var tmp [16]string
	vals := tmp[:0]
	for {
		v, ok := p.str()
		if !ok {
			return false
		}
		vals = append(vals, v)
		if p.lit("]") {
			break
		}
		if !p.lit(",") {
			return p.fail("want , or ]")
		}
	}
	*dst = slices.Clone(vals)
	return true
}

// str parses a string literal in appendJSONString's form. Without escapes
// the value is a substring of the line; with them it is unescaped into a
// fresh string.
func (p *walParser) str() (string, bool) {
	if !p.lit(`"`) {
		return "", p.fail("want string")
	}
	start := p.pos
	for p.pos < len(p.s) {
		switch c := p.s[p.pos]; {
		case c == '"':
			p.pos++
			return p.s[start : p.pos-1], true
		case c == '\\':
			return p.unescape(start)
		case c < 0x20:
			return "", p.fail("raw control byte in string")
		}
		p.pos++
	}
	return "", p.fail("unterminated string")
}

// unescape finishes a string literal that begins at start and contains an
// escape at p.pos. It accepts exactly the escapes appendJSONString writes:
// \" \\ \n \r \t, and \u00xx (lower-case hex) for the other control
// bytes.
func (p *walParser) unescape(start int) (string, bool) {
	b := []byte(p.s[start:p.pos])
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch {
		case c == '"':
			p.pos++
			return string(b), true
		case c < 0x20:
			return "", p.fail("raw control byte in string")
		case c != '\\':
			b = append(b, c)
			p.pos++
			continue
		}
		if p.pos+1 >= len(p.s) {
			return "", p.fail("unterminated string")
		}
		switch p.s[p.pos+1] {
		case '"', '\\':
			b = append(b, p.s[p.pos+1])
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			x, ok := p.controlEscape()
			if !ok {
				return "", false
			}
			b = append(b, x)
			p.pos += 6
			continue
		default:
			return "", p.fail("unknown escape")
		}
		p.pos += 2
	}
	return "", p.fail("unterminated string")
}

// controlEscape decodes the \u00xx escape at p.pos. Only control bytes
// appendJSONString has no short escape for are accepted.
func (p *walParser) controlEscape() (byte, bool) {
	if len(p.s)-p.pos < 6 || p.s[p.pos+2:p.pos+4] != "00" {
		return 0, p.fail("bad \\u escape")
	}
	hi := strings.IndexByte(hexDigits, p.s[p.pos+4])
	lo := strings.IndexByte(hexDigits, p.s[p.pos+5])
	if hi < 0 || hi > 1 || lo < 0 {
		return 0, p.fail("bad \\u escape")
	}
	x := byte(hi<<4 | lo)
	if x == '\n' || x == '\r' || x == '\t' {
		return 0, p.fail("bad \\u escape")
	}
	return x, true
}

// nanoTime converts unix nanos to a UTC time.Time. The engine compares
// event times by wall clock only, so the location-normalized round trip is
// exact for everything the engine observes.
func nanoTime(n int64) time.Time { return time.Unix(0, n).UTC() }
