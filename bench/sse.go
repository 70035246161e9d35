package main

import (
	"bufio"
	"bytes"
	"io"
)

// sseReader parses a Server-Sent Events stream into event payloads: the
// "data:" lines of each event joined by newlines, events separated by a
// blank line. Comment lines and the other SSE fields (event, id, retry)
// are skipped — the /v1 streams only send data.
type sseReader struct {
	sc  *bufio.Scanner
	buf bytes.Buffer
}

// maxSSELine bounds one line of a frame; a /v1 ranking frame is a few KiB.
const maxSSELine = 4 << 20

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxSSELine)
	return &sseReader{sc: sc}
}

// next returns the next event's payload, valid until the following call.
// Events without data lines are skipped; a cleanly ended stream is io.EOF.
func (s *sseReader) next() ([]byte, error) {
	s.buf.Reset()
	have := false
	for s.sc.Scan() {
		line := bytes.TrimSuffix(s.sc.Bytes(), []byte("\r"))
		switch {
		case len(line) == 0:
			if have {
				return s.buf.Bytes(), nil
			}
		case bytes.HasPrefix(line, []byte("data:")):
			if have {
				s.buf.WriteByte('\n')
			}
			s.buf.Write(bytes.TrimPrefix(line[len("data:"):], []byte(" ")))
			have = true
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}
