// Package ingest provides the bounded ring-buffer queue that decouples
// document producers from engine consumption: producers append items and
// return immediately (or apply a backpressure policy when the ring is
// full), while a single drainer goroutine dequeues in batches sized for the
// engine's batched ingest path. The ring preserves FIFO order, so a
// sequentially produced stream reaches the engine in the same order it
// would have under direct per-document consumption — the determinism
// contract batching upholds.
package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"enblogue/internal/stream"
)

// Config parameterises a Queue.
type Config struct {
	// Size is the ring capacity in items. Must be ≥ 1.
	Size int
	// MaxBatch caps the items one Drain returns. Must be ≥ 1 and is
	// clamped to Size.
	MaxBatch int
	// FlushInterval bounds how long Drain waits for a partial batch to
	// fill once at least one item is available. Zero drains whatever is
	// available immediately.
	FlushInterval time.Duration
	// DropOldest switches the backpressure policy: when true, Put on a
	// full ring evicts the oldest queued item (counted in Dropped) instead
	// of blocking the producer.
	DropOldest bool
}

// Queue is a bounded MPSC ring buffer of stream items. Any number of
// producers may Put concurrently; one drainer at a time is expected to
// Drain. All methods are safe for concurrent use.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on every state change; waiters recheck
	cfg  Config

	buf  []*stream.Item
	head int // index of the oldest item
	n    int // queued items

	inFlight bool // a drained batch is still being consumed (until Done)
	closed   bool
	timedOut bool // flush-interval timer fired for the current drain wait

	dropped atomic.Int64
}

// New returns a queue with the given configuration. Size and MaxBatch are
// clamped to sane minima so a zero-ish config still yields a working queue.
func New(cfg Config) *Queue {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxBatch > cfg.Size {
		cfg.MaxBatch = cfg.Size
	}
	q := &Queue{cfg: cfg, buf: make([]*stream.Item, cfg.Size)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Put appends one item. On a full ring it blocks until space frees up —
// or, under DropOldest, evicts the oldest queued item and returns
// immediately. It returns false (discarding the item) if the queue is
// closed. Nil items are ignored.
func (q *Queue) Put(it *stream.Item) bool {
	if it == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) && !q.closed && !q.cfg.DropOldest {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	if q.n == len(q.buf) { // DropOldest policy
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped.Add(1)
	}
	q.buf[(q.head+q.n)%len(q.buf)] = it
	q.n++
	q.cond.Broadcast()
	return true
}

// Drain blocks until at least one item is queued or the queue is closed,
// optionally waits up to FlushInterval for a partial batch to fill, then
// appends up to MaxBatch items (FIFO) to buf and returns it with ok=true.
// It returns ok=false only when the queue is closed and empty. A non-empty
// drain marks the queue in-flight until Done is called, so WaitIdle covers
// the batch currently being consumed, not just the ring.
func (q *Queue) Drain(buf []*stream.Item) (_ []*stream.Item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return buf, false // closed and empty
	}
	if q.n < q.cfg.MaxBatch && q.cfg.FlushInterval > 0 && !q.closed {
		q.timedOut = false
		tm := time.AfterFunc(q.cfg.FlushInterval, func() {
			q.mu.Lock()
			q.timedOut = true
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		for q.n < q.cfg.MaxBatch && !q.closed && !q.timedOut {
			q.cond.Wait()
		}
		tm.Stop()
	}
	take := q.n
	if take > q.cfg.MaxBatch {
		take = q.cfg.MaxBatch
	}
	for i := 0; i < take; i++ {
		buf = append(buf, q.buf[q.head])
		q.buf[q.head] = nil
		q.head = (q.head + 1) % len(q.buf)
	}
	q.n -= take
	q.inFlight = true
	q.cond.Broadcast()
	return buf, true
}

// Done marks the batch returned by the last non-empty Drain as fully
// consumed, unblocking WaitIdle once the ring is also empty.
func (q *Queue) Done() {
	q.mu.Lock()
	q.inFlight = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// WaitIdle blocks until the ring is empty and no drained batch is being
// consumed — the happens-before edge Engine.Flush needs: every item Put
// before WaitIdle was called has been handed to the consumer and consumed
// by the time it returns, provided the drainer keeps draining.
func (q *Queue) WaitIdle() {
	q.mu.Lock()
	for q.n > 0 || q.inFlight {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Close marks the queue closed: subsequent Puts are rejected, blocked Puts
// return false, and Drain returns ok=false once the remaining items have
// been drained. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Depth returns the number of items currently queued.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Dropped returns the total items evicted under the DropOldest policy.
func (q *Queue) Dropped() int64 { return q.dropped.Load() }
