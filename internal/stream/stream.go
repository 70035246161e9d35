// Package stream implements the paper's push-based stream-processing
// architecture: data items are tuples of (timestamp, docId, set of tags,
// set of entities) that flow along producer–consumer edges of an operator
// DAG from sources to sinks. Operators can be shared between multiple query
// plans (Section 4.1: "overlapping parts, like data sources, sketching
// operators, entity tagging, and statistics operators are shared for
// efficiency").
package stream

import (
	"context"
	"time"
)

// Item is the stream tuple of the paper: (timestamp, docId, set of tags,
// set of entities). Text carries the raw document content for the entity
// tagger; Source names the originating wrapper.
type Item struct {
	Time     time.Time
	DocID    string
	Tags     []string
	Entities []string
	Text     string
	Source   string
}

// Clone returns a deep copy of the item. Operators that mutate tag or entity
// sets must clone first so that sibling consumers in other plans see the
// original tuple.
func (it *Item) Clone() *Item {
	cp := *it
	cp.Tags = append([]string(nil), it.Tags...)
	cp.Entities = append([]string(nil), it.Entities...)
	return &cp
}

// AllTags returns the union of Tags and Entities: the combined tag space the
// paper uses when entity tags are "combined with regular tags to detect
// tag/entity mixtures as emergent topics".
func (it *Item) AllTags() []string {
	out := make([]string, 0, len(it.Tags)+len(it.Entities))
	seen := make(map[string]bool, len(it.Tags)+len(it.Entities))
	for _, t := range it.Tags {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, e := range it.Entities {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Sink consumes stream items. Consume is called from a single producing
// goroutine per edge; sinks shared across concurrently running plans must
// synchronise internally.
type Sink interface {
	Consume(*Item)
}

// Flusher is implemented by sinks that buffer state and want a signal when
// the stream ends.
type Flusher interface {
	Flush()
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Item)

// Consume calls f(it).
func (f SinkFunc) Consume(it *Item) { f(it) }

// FanOut pushes each item to every subscribed sink, in subscription order.
// It is the producer side of the paper's producer–consumer edges and the
// mechanism by which one operator instance feeds multiple plans.
type FanOut struct {
	sinks []Sink
}

// Subscribe adds a downstream consumer.
func (f *FanOut) Subscribe(s Sink) { f.sinks = append(f.sinks, s) }

// Emit pushes it to all subscribers.
func (f *FanOut) Emit(it *Item) {
	for _, s := range f.sinks {
		s.Consume(it)
	}
}

// Subscribers returns the number of attached sinks.
func (f *FanOut) Subscribers() int { return len(f.sinks) }

// Flush forwards the flush signal to all subscribers that implement Flusher.
func (f *FanOut) Flush() {
	for _, s := range f.sinks {
		if fl, ok := s.(Flusher); ok {
			fl.Flush()
		}
	}
}

// Operator is a stream transformer: it consumes items and emits derived
// items to its subscribers.
type Operator interface {
	Sink
	Subscribe(Sink)
}

// Map transforms each item with Fn and forwards the result. Returning nil
// drops the item. Fn must not mutate its argument in place unless it owns
// it; use Item.Clone when the transformation rewrites shared state.
type Map struct {
	FanOut
	Fn func(*Item) *Item
}

// NewMap returns a map operator applying fn to every item.
func NewMap(fn func(*Item) *Item) *Map { return &Map{Fn: fn} }

// Consume implements Sink.
func (m *Map) Consume(it *Item) {
	if out := m.Fn(it); out != nil {
		m.Emit(out)
	}
}

// Source produces a stream of items, pushing each into emit. Run returns
// when the stream is exhausted or ctx is cancelled.
type Source interface {
	Run(ctx context.Context, emit func(*Item)) error
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context, emit func(*Item)) error

// Run calls f.
func (f SourceFunc) Run(ctx context.Context, emit func(*Item)) error {
	return f(ctx, emit)
}

// SliceSource replays a fixed slice of items in order.
type SliceSource []*Item

// Run implements Source.
func (s SliceSource) Run(ctx context.Context, emit func(*Item)) error {
	for _, it := range s {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		emit(it)
	}
	return nil
}
