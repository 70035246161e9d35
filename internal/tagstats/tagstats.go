// Package tagstats maintains per-tag sliding-window statistics over the
// document stream and implements the paper's first stage, seed tag
// selection: "Seed tags can be determined based on different criteria, such
// as popularity and volatility. We choose seed tags to be popular tags.
// Popularity is easy to measure as it merely requires computing a
// sliding-window average on the document stream."
package tagstats

import (
	"fmt"
	"math"
	"slices"
	"time"

	"enblogue/internal/intern"
	"enblogue/internal/window"
)

// Criterion selects how seed tags are chosen.
type Criterion int

const (
	// ByPopularity picks the tags with the most documents in the window —
	// the paper's default choice.
	ByPopularity Criterion = iota
	// ByVolatility picks the tags whose windowed count series fluctuates
	// the most (coefficient of variation).
	ByVolatility
	// ByHybrid ranks by popularity × (1 + volatility), favouring tags that
	// are both hot and moving.
	ByHybrid
)

// String returns the criterion name.
func (c Criterion) String() string {
	switch c {
	case ByPopularity:
		return "popularity"
	case ByVolatility:
		return "volatility"
	case ByHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// Config parameterises a Tracker.
type Config struct {
	// Buckets and Resolution define the sliding window (span = product).
	Buckets    int
	Resolution time.Duration
	// SweepEvery controls how often (in observed documents) idle tags are
	// evicted. Zero means every 4096 documents.
	SweepEvery int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Buckets == 0 {
		out.Buckets = 48
	}
	if out.Resolution == 0 {
		out.Resolution = time.Hour
	}
	if out.SweepEvery == 0 {
		out.SweepEvery = 4096
	}
	return out
}

// TagStat is a snapshot of one tag's windowed statistics.
type TagStat struct {
	Tag        string
	ID         uint32  // the tag's interned ID (see internal/intern)
	Count      float64 // documents carrying the tag inside the window
	Popularity float64 // fraction of windowed documents carrying the tag
	Volatility float64 // coefficient of variation of the bucket series
}

// Tracker maintains windowed document counts per tag, keyed by the tag's
// interned ID (internal/intern). It is not safe for concurrent use;
// callers serialise access (the engine holds its bookkeeping lock).
//
// Per-tag counters live in a shared window.CounterArena rather than one
// heap-allocated counter per tag: the seed-selection scan visits every
// active tag every evaluation tick, and walking slot-ordered slabs (heads,
// totals) is sequential reads where a map of counter pointers is a cache
// miss per tag. slotOf maps an ID to its arena slot through a dense array,
// and ids is the reverse index the scans walk in slot order. Counting and
// selecting hash no tag string: tag strings are read back through
// intern.Lookup only where a ranking needs them — selected stats and score
// ties.
type Tracker struct {
	cfg Config
	// slotOf[id] is the tag's arena slot + 1; 0 (or past the end) means
	// the tag is not tracked.
	slotOf []int32
	// ids[slot] is the slot's tag ID + 1; 0 marks a free slot.
	ids    []uint32
	active int
	arena  *window.CounterArena
	// docs holds the windowed document total in its one slot, docSlot.
	docs    *window.CounterArena
	sinceGC int
	now     time.Time

	// dedup and idBuf serve Observe, the string form of ObserveIDs.
	dedup intern.Dedup
	idBuf []uint32
}

// NoID is kept for TopAppend callers written against a resolver that could
// fail: every tracked tag has an interned ID, so TopAppend never passes it.
const NoID = ^uint32(0)

// SetTagIDResolver is kept for callers of the resolver-based API. The
// tracker is keyed by interned IDs, so every tag already has the ID
// intern.Find would resolve; the function is not called.
func (tr *Tracker) SetTagIDResolver(func(tag string) (uint32, bool)) {}

// NewTracker returns a tracker with the given configuration.
func NewTracker(cfg Config) *Tracker {
	c := cfg.withDefaults()
	docs := window.NewCounterArena(c.Buckets, c.Resolution)
	docs.Alloc() // docSlot
	return &Tracker{
		cfg:   c,
		arena: window.NewCounterArena(c.Buckets, c.Resolution),
		docs:  docs,
	}
}

// docSlot is the document total's slot in Tracker.docs.
const docSlot = 0

// Observe records one document with the given tag strings at time t: it
// interns and deduplicates them (intern.Dedup) and calls ObserveIDs.
func (tr *Tracker) Observe(t time.Time, tags []string) {
	tr.idBuf = tr.dedup.Append(tr.idBuf[:0], tags)
	tr.ObserveIDs(t, tr.idBuf)
}

// ObserveIDs records one document carrying the given tags at time t. ids
// must be a document's tag set as intern.Dedup produces it: distinct IDs.
//
//enblogue:hotpath
func (tr *Tracker) ObserveIDs(t time.Time, ids []uint32) {
	if t.After(tr.now) {
		tr.now = t
	}
	// One timestamp-to-bucket conversion per document, shared by the
	// document total and every tag.
	abs := tr.arena.BucketIndex(t)
	tr.docs.IncAbs(docSlot, abs)
	for _, id := range ids {
		tr.arena.IncAbs(tr.slot(id), abs)
	}
	tr.sinceGC++
	if tr.sinceGC >= tr.cfg.SweepEvery {
		tr.sweep()
	}
}

// slot returns tag id's counter slot, allocating it on first sight.
func (tr *Tracker) slot(id uint32) int32 {
	if int(id) < len(tr.slotOf) {
		if s := tr.slotOf[id]; s != 0 {
			return s - 1
		}
	} else {
		tr.slotOf = append(tr.slotOf, make([]int32, int(id)+1-len(tr.slotOf))...)
	}
	slot := tr.arena.Alloc()
	tr.slotOf[id] = slot + 1
	for int(slot) >= len(tr.ids) {
		tr.ids = append(tr.ids, 0)
	}
	tr.ids[slot] = id + 1
	tr.active++
	return slot
}

// sweep evicts tags whose windows have emptied, bounding memory to the tags
// active inside the window.
func (tr *Tracker) sweep() {
	tr.sinceGC = 0
	abs := tr.arena.BucketIndex(tr.now)
	for slot, idp := range tr.ids {
		if idp != 0 && tr.arena.PeekAbs(int32(slot), abs) == 0 {
			tr.release(int32(slot))
		}
	}
}

// release frees slot and forgets the tag occupying it.
func (tr *Tracker) release(slot int32) {
	tr.slotOf[tr.ids[slot]-1] = 0
	tr.ids[slot] = 0
	tr.active--
	tr.arena.Release(slot)
}

// AnyCountAtLeast reports whether any of ids has at least minCount
// windowed documents, read as TopAppendIDs reads counts. With minCount > 0,
// a TopAppendIDs selection under the same minCount is empty exactly when no
// tracked tag passes this test.
func (tr *Tracker) AnyCountAtLeast(ids []uint32, minCount float64) bool {
	abs := tr.arena.BucketIndex(tr.now)
	for _, id := range ids {
		if int(id) < len(tr.slotOf) {
			if s := tr.slotOf[id]; s != 0 && tr.arena.PeekAbs(s-1, abs) >= minCount {
				return true
			}
		}
	}
	return false
}

// DocCount returns the number of documents inside the window.
func (tr *Tracker) DocCount() float64 {
	return tr.docs.ValueAt(docSlot, tr.now)
}

func coefficientOfVariation(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum float64
	for _, v := range series {
		sum += v
	}
	mean := sum / float64(len(series))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range series {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(series))) / mean
}

// ActiveTags returns the number of tags currently tracked.
func (tr *Tracker) ActiveTags() int { return tr.active }

// Top returns the k highest-scoring tags under the criterion, ties broken
// alphabetically for determinism. Tags with fewer than minCount windowed
// documents are excluded.
func (tr *Tracker) Top(k int, crit Criterion, minCount float64) []TagStat {
	return tr.TopAppendIDs(k, crit, minCount, nil, nil)
}

// statScore evaluates the selection criterion on one stat. Pointer receiver
// argument: the comparators run O(tags·log k) times per tick and a TagStat
// is ~6 words, so by-value passing would copy structs on every comparison.
func statScore(crit Criterion, s *TagStat) float64 {
	switch crit {
	case ByVolatility:
		return s.Volatility
	case ByHybrid:
		return s.Popularity * (1 + s.Volatility)
	default:
		return s.Popularity
	}
}

// statWorse reports whether a ranks strictly below b in seed order: lower
// score, ties by tag descending — the mirror of Top's sort comparator, so a
// bounded min-heap under statWorse keeps exactly the prefix a full
// sort-and-trim would keep (the order is strict: tags are unique).
func statWorse(crit Criterion, a, b *TagStat) bool {
	sa, sb := statScore(crit, a), statScore(crit, b)
	if sa != sb {
		return sa < sb
	}
	return b.Tag < a.Tag
}

// TopAppend is TopAppendIDs with each also handed the tag string (read
// through intern.Lookup); id is never NoID.
func (tr *Tracker) TopAppend(k int, crit Criterion, minCount float64, buf []TagStat, each func(tag string, id uint32, n float64)) []TagStat {
	if each == nil {
		return tr.TopAppendIDs(k, crit, minCount, buf, nil)
	}
	return tr.TopAppendIDs(k, crit, minCount, buf, func(id uint32, n float64) {
		each(intern.Lookup(id), id, n)
	})
}

// TopAppendIDs is Top fused with a count scan, allocation-free in steady
// state: it appends the selection to buf (pass buf[:0] to reuse the backing
// array across ticks) and, when each is non-nil, streams every tracked
// tag's ID and positive windowed count through it along the way. The
// engine's evaluation tick uses this to rebuild its tag-count index and
// reselect seeds in a single pass over the tags instead of two, with a
// bounded min-heap (O(tags·log k)) replacing the full sort (O(tags·log
// tags)). The selected stats — values and order — are identical to Top's.
func (tr *Tracker) TopAppendIDs(k int, crit Criterion, minCount float64, buf []TagStat, each func(id uint32, n float64)) []TagStat {
	if k <= 0 {
		if each != nil {
			abs := tr.arena.BucketIndex(tr.now)
			for slot, idp := range tr.ids {
				if idp == 0 {
					continue
				}
				if n := tr.arena.PeekAbs(int32(slot), abs); n > 0 {
					each(idp-1, n)
				}
			}
		}
		return buf
	}
	total := tr.DocCount()
	h := buf // bounded min-heap region: buf[len(buf):len(buf)+≤k]
	base := len(buf)
	byPop := crit == ByPopularity
	// One timestamp-to-bucket conversion for the whole scan; the walk
	// itself is slot order over the arena slabs — sequential reads, no
	// per-tag pointer chase.
	abs := tr.arena.BucketIndex(tr.now)
	for slot, idp := range tr.ids {
		if idp == 0 {
			continue
		}
		id := idp - 1
		n := tr.arena.PeekAbs(int32(slot), abs)
		if n == 0 {
			continue
		}
		if each != nil {
			each(id, n)
		}
		if n < minCount {
			continue
		}
		// Fast reject for the default criterion: with the heap full, most
		// tags rank below the root, and that one comparison needs neither
		// the TagStat nor the statPush call — nor the tag string, unless
		// the popularities tie. The condition is exactly !statWorse(root,
		// s) specialised to ByPopularity.
		if byPop && len(h)-base == k {
			pop := 0.0
			if total > 0 {
				pop = n / total
			}
			root := &h[base]
			if pop < root.Popularity || (pop == root.Popularity && intern.Lookup(id) >= root.Tag) {
				continue
			}
		}
		s := TagStat{Tag: intern.Lookup(id), ID: id, Count: n}
		if total > 0 {
			s.Popularity = n / total
		}
		if crit == ByVolatility || crit == ByHybrid {
			s.Volatility = coefficientOfVariation(tr.arena.Series(int32(slot)))
		}
		h = statPush(h, base, k, crit, &s)
	}
	sel := h[base:]
	slices.SortFunc(sel, func(a, b TagStat) int { return statCmp(crit, &a, &b) })
	return h
}

// statCmp orders stats by descending score, ties by tag ascending — the
// comparator form of statWorse (a before b exactly when b is worse than a),
// for the generic sort: no interface boxing, no per-compare closure through
// sort.Interface.
func statCmp(crit Criterion, a, b *TagStat) int {
	sa, sb := statScore(crit, a), statScore(crit, b)
	if sa != sb {
		if sa > sb {
			return -1
		}
		return 1
	}
	if a.Tag < b.Tag {
		return -1
	}
	if a.Tag > b.Tag {
		return 1
	}
	return 0
}

// statPush folds s into the bounded min-heap occupying h[base:], capacity
// k, whose root is the worst kept stat under statWorse.
func statPush(h []TagStat, base, k int, crit Criterion, s *TagStat) []TagStat {
	heap := h[base:]
	if len(heap) < k {
		h = append(h, *s)
		heap = h[base:]
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !statWorse(crit, &heap[i], &heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
		return h
	}
	if !statWorse(crit, &heap[0], s) {
		return h // s is no better than the worst kept stat
	}
	heap[0] = *s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(heap) && statWorse(crit, &heap[l], &heap[m]) {
			m = l
		}
		if r < len(heap) && statWorse(crit, &heap[r], &heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		heap[i], heap[m] = heap[m], heap[i]
		i = m
	}
	return h
}

// SeedSelector periodically materialises the current seed tag set from a
// Tracker. Reselecting on every document would be wasted work; the paper's
// engine reselects at evaluation ticks.
//
// Like Tracker it is not safe for concurrent use; callers serialise access
// (the engine holds its bookkeeping lock). Reselect hands out a freshly
// built seed slice, so a slice handed out earlier keeps the set it was
// built from; the ID membership test (Set) and the string predicate (Func)
// are updated in place and always answer for the current set.
type SeedSelector struct {
	K         int
	Criterion Criterion
	MinCount  float64

	ordered []string
	set     intern.Set
	// fn is Func's predicate, built once so the call allocates nothing.
	fn func(string) bool
}

// NewSeedSelector returns a selector for the top-k tags under crit with the
// given minimum windowed count.
func NewSeedSelector(k int, crit Criterion, minCount float64) *SeedSelector {
	s := &SeedSelector{K: k, Criterion: crit, MinCount: minCount}
	s.fn = func(tag string) bool {
		id, ok := intern.Find(tag)
		return ok && s.set.Has(id)
	}
	return s
}

// Reselect recomputes the seed set from tr and returns it (ordered by
// descending score). The returned slice is never mutated afterwards.
func (s *SeedSelector) Reselect(tr *Tracker) []string {
	return s.ReselectFrom(tr.Top(s.K, s.Criterion, s.MinCount))
}

// ReselectFrom installs the seed set from an externally computed top-k stat
// slice — the fused-pass form of Reselect: the engine obtains top via
// Tracker.TopAppendIDs (selecting with this selector's K, Criterion, and
// MinCount) while it streams tag counts for its own index, then installs
// the result here. top is only read; its Tag and ID fields must agree.
// The membership update costs O(old seeds + new seeds).
func (s *SeedSelector) ReselectFrom(top []TagStat) []string {
	ordered := make([]string, 0, len(top))
	s.set.Reset()
	for _, st := range top {
		s.set.Add(st.ID)
		ordered = append(ordered, st.Tag)
	}
	s.ordered = ordered
	return ordered
}

// Set returns the current seed set as a membership test over interned tag
// IDs — the form pair planning consumes. Reselect updates it in place.
func (s *SeedSelector) Set() *intern.Set { return &s.set }

// Func returns the current seed set as a predicate over tag strings, for
// callers that hold strings; it resolves the tag through intern.Find and
// tests Set.
func (s *SeedSelector) Func() func(string) bool { return s.fn }

// Seeds returns the current ordered seed set. Callers must not mutate it.
func (s *SeedSelector) Seeds() []string { return s.ordered }
