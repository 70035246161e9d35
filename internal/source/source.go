// Package source provides the data-source wrappers of the paper's
// architecture: "At the data source level, it consists of several wrappers
// that either consume live streams or replay existing datasets for
// experiments."
//
// The paper's proprietary datasets are substituted by synthetic generators
// with the same statistical shape and — crucially — known ground truth:
//
//   - the New York Times archive (1.8M docs, 1987–2007, editorial categories
//     and descriptors) → GenerateArchive: Zipf-distributed category/descriptor
//     tags plus injected emergent events at known times (show case 1);
//   - live Twitter → GenerateTweets: hashtagged short texts with scripted
//     happenings, including the SIGMOD/Athens stunt (show case 2);
//   - RSS/blog feeds → GenerateFeed: titled items on the same scenario
//     machinery.
//
// Documents serialise to JSONL for archiving and replay at configurable
// time-lapse speed.
package source

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/stream"
)

// Document is the serialisable form of a stream item.
type Document struct {
	Time     time.Time `json:"time"`
	ID       string    `json:"id"`
	Tags     []string  `json:"tags"`
	Entities []string  `json:"entities,omitempty"`
	Text     string    `json:"text,omitempty"`
	Source   string    `json:"source,omitempty"`
}

// Item converts the document to a stream tuple.
func (d *Document) Item() *stream.Item {
	return &stream.Item{
		Time:     d.Time,
		DocID:    d.ID,
		Tags:     append([]string(nil), d.Tags...),
		Entities: append([]string(nil), d.Entities...),
		Text:     d.Text,
		Source:   d.Source,
	}
}

// FromItem converts a stream tuple back to a document.
func FromItem(it *stream.Item) Document {
	return Document{
		Time:     it.Time,
		ID:       it.DocID,
		Tags:     append([]string(nil), it.Tags...),
		Entities: append([]string(nil), it.Entities...),
		Text:     it.Text,
		Source:   it.Source,
	}
}

// SortDocs orders documents by (time, ID) in place — generator output must
// be replayed in timestamp order.
func SortDocs(docs []Document) {
	sort.Slice(docs, func(i, j int) bool {
		if !docs[i].Time.Equal(docs[j].Time) {
			return docs[i].Time.Before(docs[j].Time)
		}
		return docs[i].ID < docs[j].ID
	})
}

// WriteJSONL writes one JSON document per line.
func WriteJSONL(w io.Writer, docs []Document) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range docs {
		if err := enc.Encode(&docs[i]); err != nil {
			return fmt.Errorf("source: encoding doc %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads JSONL documents. With strict true, the first malformed
// line aborts with an error naming the line; otherwise malformed lines are
// skipped and counted.
func ReadJSONL(r io.Reader, strict bool) (docs []Document, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var d Document
		if err := json.Unmarshal(raw, &d); err != nil {
			if strict {
				return nil, 0, fmt.Errorf("source: line %d: %w", line, err)
			}
			skipped++
			continue
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("source: reading: %w", err)
	}
	return docs, skipped, nil
}

// Replayer replays a document slice as a stream source, optionally in
// time-lapse: with Speedup > 0, inter-arrival gaps are divided by Speedup
// and slept in wall time (capped at MaxSleep); with Speedup <= 0 the replay
// runs as fast as the consumer accepts — the mode used by experiments.
type Replayer struct {
	Docs    []Document
	Speedup float64
	// MaxSleep caps a single inter-document sleep so archive gaps (nights,
	// weekends) don't stall a demo. Zero means 2 seconds.
	MaxSleep time.Duration
}

// Run implements stream.Source.
func (r *Replayer) Run(ctx context.Context, emit func(*stream.Item)) error {
	maxSleep := r.MaxSleep
	if maxSleep <= 0 {
		maxSleep = 2 * time.Second
	}
	var prev time.Time
	for i := range r.Docs {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		d := &r.Docs[i]
		if r.Speedup > 0 && !prev.IsZero() {
			gap := d.Time.Sub(prev)
			if gap > 0 {
				sleep := time.Duration(float64(gap) / r.Speedup)
				if sleep > maxSleep {
					sleep = maxSleep
				}
				timer := time.NewTimer(sleep)
				select {
				case <-ctx.Done():
					timer.Stop()
					return ctx.Err()
				case <-timer.C:
				}
			}
		}
		prev = d.Time
		emit(d.Item())
	}
	return nil
}

// Event is an injected ground-truth emergent topic: during its active span,
// extra documents are generated carrying both tags, raising the pair's
// correlation. Events are what the archive lacks in real datasets — known
// answers for precision and latency measurement.
type Event struct {
	// Name labels the event (e.g. "hurricane-landfall").
	Name string
	// Tags is the tag pair whose correlation shifts.
	Tags [2]string
	// Category is an optional extra tag stamped on event documents,
	// simulating the NYT editorial category.
	Category string
	// Start and Duration bound the active span.
	Start    time.Time
	Duration time.Duration
	// DocsPerHour is the rate of extra co-tagged documents while active.
	DocsPerHour float64
	// Text is an optional text template for event documents.
	Text string
}

// Pair returns the canonical pair key of the event's tag pair.
func (e *Event) Pair() pairs.Key { return pairs.MakeKey(e.Tags[0], e.Tags[1]) }
