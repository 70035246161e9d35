package ingest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"enblogue/internal/stream"
)

func item(i int) *stream.Item {
	return &stream.Item{DocID: fmt.Sprintf("d%d", i)}
}

// drainAll pulls every queued item in Drain-sized batches until the queue
// reports closed-and-empty, returning the items in arrival order.
func drainAll(q *Queue) []*stream.Item {
	var out []*stream.Item
	for {
		batch, ok := q.Drain(nil)
		out = append(out, batch...)
		if len(batch) > 0 {
			q.Done()
		}
		if !ok {
			return out
		}
	}
}

func TestQueueFIFOAcrossBatches(t *testing.T) {
	q := New(Config{Size: 64, MaxBatch: 7})
	const n = 50
	for i := 0; i < n; i++ {
		if !q.Put(item(i)) {
			t.Fatalf("Put(%d) rejected on open queue", i)
		}
	}
	q.Close()
	got := drainAll(q)
	if len(got) != n {
		t.Fatalf("drained %d items, want %d", len(got), n)
	}
	for i, it := range got {
		if want := fmt.Sprintf("d%d", i); it.DocID != want {
			t.Fatalf("item %d = %q, want %q (FIFO violated)", i, it.DocID, want)
		}
	}
	if q.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", q.Dropped())
	}
}

func TestQueueDrainRespectsMaxBatch(t *testing.T) {
	q := New(Config{Size: 32, MaxBatch: 5})
	for i := 0; i < 12; i++ {
		q.Put(item(i))
	}
	batch, ok := q.Drain(nil)
	if !ok || len(batch) != 5 {
		t.Fatalf("first drain = %d items (ok=%v), want 5", len(batch), ok)
	}
	q.Done()
	if d := q.Depth(); d != 7 {
		t.Errorf("depth after drain = %d, want 7", d)
	}
}

func TestQueueDropOldestEvictsAndCounts(t *testing.T) {
	q := New(Config{Size: 4, MaxBatch: 4, DropOldest: true})
	for i := 0; i < 10; i++ {
		if !q.Put(item(i)) {
			t.Fatalf("Put(%d) rejected: drop-oldest must never block or reject while open", i)
		}
	}
	if got := q.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	q.Close()
	got := drainAll(q)
	if len(got) != 4 {
		t.Fatalf("drained %d items, want the 4 newest", len(got))
	}
	// The survivors are the newest four, still in FIFO order.
	for i, it := range got {
		if want := fmt.Sprintf("d%d", i+6); it.DocID != want {
			t.Fatalf("survivor %d = %q, want %q", i, it.DocID, want)
		}
	}
}

func TestQueueBlockingPutWaitsForSpace(t *testing.T) {
	q := New(Config{Size: 2, MaxBatch: 2})
	q.Put(item(0))
	q.Put(item(1))
	unblocked := make(chan struct{})
	go func() {
		q.Put(item(2)) // ring full: must block until the drainer makes room
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("Put on a full blocking queue returned before space freed")
	case <-time.After(20 * time.Millisecond):
	}
	batch, ok := q.Drain(nil)
	if !ok || len(batch) == 0 {
		t.Fatalf("drain = (%d, %v), want items", len(batch), ok)
	}
	q.Done()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Put still blocked after space freed")
	}
	if q.Dropped() != 0 {
		t.Errorf("blocking policy dropped %d items, want 0", q.Dropped())
	}
}

func TestQueueCloseRejectsAndDrainsRemainder(t *testing.T) {
	q := New(Config{Size: 8, MaxBatch: 8})
	q.Put(item(0))
	q.Put(item(1))
	q.Close()
	if q.Put(item(2)) {
		t.Error("Put after Close accepted an item")
	}
	got := drainAll(q)
	if len(got) != 2 {
		t.Fatalf("drained %d items after close, want the 2 queued before it", len(got))
	}
	// A closed empty queue keeps returning ok=false without blocking.
	if _, ok := q.Drain(nil); ok {
		t.Error("Drain on closed empty queue returned ok=true")
	}
}

func TestQueueWaitIdleCoversInFlightBatch(t *testing.T) {
	q := New(Config{Size: 8, MaxBatch: 8})
	q.Put(item(0))
	batch, ok := q.Drain(nil)
	if !ok || len(batch) != 1 {
		t.Fatalf("drain = (%d, %v), want the queued item", len(batch), ok)
	}
	// Ring is empty but the batch is still being consumed: WaitIdle must
	// not return until Done.
	idle := make(chan struct{})
	go func() {
		q.WaitIdle()
		close(idle)
	}()
	select {
	case <-idle:
		t.Fatal("WaitIdle returned while a drained batch was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	q.Done()
	select {
	case <-idle:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitIdle still blocked after Done")
	}
}

func TestQueueFlushIntervalReleasesPartialBatch(t *testing.T) {
	q := New(Config{Size: 64, MaxBatch: 64, FlushInterval: 5 * time.Millisecond})
	q.Put(item(0))
	start := time.Now()
	batch, ok := q.Drain(nil) // MaxBatch unreachable: must give up at the interval
	if !ok || len(batch) != 1 {
		t.Fatalf("drain = (%d, %v), want the single queued item", len(batch), ok)
	}
	q.Done()
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("partial batch held for %v, want ~FlushInterval", waited)
	}
}

func TestQueueConcurrentProducersLoseNothing(t *testing.T) {
	q := New(Config{Size: 128, MaxBatch: 16})
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Put(item(p*per + i))
			}
		}(p)
	}
	done := make(chan []*stream.Item, 1)
	go func() { done <- drainAll(q) }()
	wg.Wait()
	q.Close()
	got := <-done
	if len(got) != producers*per {
		t.Fatalf("drained %d items, want %d", len(got), producers*per)
	}
	seen := make(map[string]bool, len(got))
	for _, it := range got {
		if seen[it.DocID] {
			t.Fatalf("item %q drained twice", it.DocID)
		}
		seen[it.DocID] = true
	}
}
