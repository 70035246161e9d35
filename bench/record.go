package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

// tickLog is everything one execution published, in publication order: per
// ranking its evaluation time, when the subscriber had it in hand, and the
// (pair, score bits) of every topic. Hashes, detection lags and latencies
// are all computed from it after the measured region, so the subscriber's
// own work inside the region stays a few appends.
type tickLog struct {
	at     []int64 // evaluation time, unix nanos
	arrive []int64 // nanos since the run's t0
	off    []int32 // topics of ranking i are [off[i], off[i+1])
	pairs  []pairs.Key
	scores []uint64
}

func (l *tickLog) add(at time.Time, arrive int64, topics []shift.Topic) {
	if len(l.off) == 0 {
		l.off = append(l.off, 0)
	}
	l.at = append(l.at, at.UnixNano())
	l.arrive = append(l.arrive, arrive)
	for i := range topics {
		l.pairs = append(l.pairs, topics[i].Pair)
		l.scores = append(l.scores, math.Float64bits(topics[i].Score))
	}
	l.off = append(l.off, int32(len(l.pairs)))
}

func (l *tickLog) len() int { return len(l.at) }

// topics returns ranking i's pairs.
func (l *tickLog) topics(i int) []pairs.Key { return l.pairs[l.off[i]:l.off[i+1]] }

// hash is the SHA-256 over every published ranking's (at, pair, score
// bits) with at before until (zero: all of them). Pairs hash by their
// rendered tags, not their process-local interned IDs, so the digest is
// comparable across runs and executions.
func (l *tickLog) hash(until time.Time) string {
	h := sha256.New()
	var b [8]byte
	for i := range l.at {
		if !until.IsZero() && l.at[i] >= until.UnixNano() {
			break
		}
		binary.LittleEndian.PutUint64(b[:], uint64(l.at[i]))
		h.Write(b[:])
		for j := l.off[i]; j < l.off[i+1]; j++ {
			h.Write([]byte(l.pairs[j].String()))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(b[:], l.scores[j])
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compare walks two logs' rankings before until side by side. wrong counts
// rankings that differ materially — another evaluation time, another pair
// at some rank, or a score further apart than tol, relative — and rounding
// counts scores that differ in their last bits only. The engine's rankings
// are bit-identical for any batching but not yet for any shard count (the
// score-floor pruning skips a decay step on shard-dependent pairs, so a
// later score can come out one ULP apart; ROADMAP item 3), which is why
// the single-shard baseline is held to a tolerance and not to the hash.
func (l *tickLog) compare(o *tickLog, until time.Time, tol float64) (wrong, rounding int) {
	n := sort.Search(len(l.at), func(i int) bool { return l.at[i] >= until.UnixNano() })
	m := sort.Search(len(o.at), func(i int) bool { return o.at[i] >= until.UnixNano() })
	if n != m {
		wrong += max(n, m) - min(n, m)
		n = min(n, m)
	}
	for i := 0; i < n; i++ {
		a, b := l.topics(i), o.topics(i)
		if l.at[i] != o.at[i] || len(a) != len(b) {
			wrong++
			continue
		}
		bad := false
		for j := range a {
			sa := math.Float64frombits(l.scores[int(l.off[i])+j])
			sb := math.Float64frombits(o.scores[int(o.off[i])+j])
			switch {
			case a[j] != b[j] || math.Abs(sa-sb) > tol*math.Max(math.Abs(sa), math.Abs(sb)):
				bad = true
			case sa != sb:
				rounding++
			}
		}
		if bad {
			wrong++
		}
	}
	return wrong, rounding
}

// detection is how the published rankings answered the scripted ground
// truth.
type detection struct {
	Attempted int
	Missed    []string // happenings never ranked within detectWithin ticks
	Lags      []float64
}

// detectWithin is how many evaluation ticks a happening's pair may take to
// reach the published top-k before it counts as missed. The burst lands
// inside one interval, so a healthy engine ranks it at the very next tick.
const detectWithin = 5

// detect scans the log for each happening's pair. The lag is counted in
// evaluation ticks from the happening's start: the tick closing the
// burst's own interval is lag 1.
func (l *tickLog) detect(hs []happening, every time.Duration) detection {
	var d detection
	for _, h := range hs {
		start := h.Start.UnixNano()
		limit := start + int64(detectWithin)*int64(every)
		d.Attempted++
		found := false
		first := sort.Search(len(l.at), func(i int) bool { return l.at[i] > start })
		for j := first; j < len(l.at) && l.at[j] <= limit && !found; j++ {
			for _, k := range l.topics(j) {
				if k == h.Pair {
					lag := (l.at[j] - start + int64(every) - 1) / int64(every)
					d.Lags = append(d.Lags, float64(lag))
					found = true
					break
				}
			}
		}
		if !found {
			d.Missed = append(d.Missed, h.Pair.String())
		}
	}
	return d
}

// recorder is the harness's own subscriber: an unpredicated subscription
// drained by a dedicated goroutine, as a live consumer would.
type recorder struct {
	log  *tickLog
	t0   time.Time
	sub  *core.Subscription
	n    atomic.Int64 // rankings logged; orders log reads after waitFor
	done chan struct{}
	// keep, when set, retains full rankings for replaying dispatch.
	keep *[]core.Ranking
}

// recorderBuffer outlasts any burst the dispatcher can deliver before the
// recorder goroutine is scheduled again; a drop would be a failed run.
const recorderBuffer = 4096

// startRecorder subscribes to e and logs into log until the subscription
// closes. One log can span several engines in sequence (recovery).
func startRecorder(e *core.Engine, log *tickLog, t0 time.Time, keep *[]core.Ranking) *recorder {
	r := &recorder{log: log, t0: t0, keep: keep, done: make(chan struct{})}
	r.n.Store(int64(log.len()))
	r.sub = e.Subscribe(context.Background(), core.SubBuffer(recorderBuffer))
	go func() {
		defer close(r.done)
		for n := range r.sub.Notifications() {
			arrive := int64(time.Since(r.t0))
			rk := n.Ranking()
			r.log.add(rk.At, arrive, rk.Topics)
			if r.keep != nil {
				*r.keep = append(*r.keep, rk)
			}
			r.n.Add(1)
		}
	}()
	return r
}

// waitFor blocks until the log holds want rankings. The engine has already
// fed the subscription's channel when Flush returns, so this only waits
// for the recorder goroutine to drain it.
func (r *recorder) waitFor(want int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for r.n.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("recorder has %d of %d rankings (dropped %d)", r.n.Load(), want, r.sub.Dropped())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// stop closes the subscription and waits for the goroutine to exit.
func (r *recorder) stop() {
	r.sub.Close()
	<-r.done
}
