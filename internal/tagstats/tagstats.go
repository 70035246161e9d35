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
	Count      float64 // documents carrying the tag inside the window
	Popularity float64 // fraction of windowed documents carrying the tag
	Volatility float64 // coefficient of variation of the bucket series
}

// Tracker maintains windowed document counts per tag. It is not safe for
// concurrent use; callers serialise access (the engine holds its
// bookkeeping lock).
//
// Per-tag counters live in a shared window.CounterArena rather than one
// heap-allocated counter per tag: the seed-selection scan visits every
// active tag every evaluation tick, and walking slot-ordered slabs (heads,
// totals) is sequential reads where a map of counter pointers is a cache
// miss per tag. slots maps tag → arena slot and revTags is the reverse
// index (empty string = free slot) the scans iterate instead of the map.
type Tracker struct {
	cfg     Config
	slots   map[string]int32
	revTags []string
	// revIDs caches, per slot, the caller-domain tag ID resolved through
	// resolve (NoID until resolved). A resolved ID is cached for the slot's
	// lifetime — resolvers must be stable, i.e. never re-map a tag — so the
	// per-tick selection scan hands IDs to its callback without re-hashing
	// every tag string; unresolved tags are retried each scan, since a tag
	// may enter the resolver's domain after its slot was allocated.
	revIDs  []uint32
	resolve func(tag string) (uint32, bool)
	arena   *window.CounterArena
	// docs holds the windowed document total in its one slot, docSlot.
	docs    *window.CounterArena
	sinceGC int
	now     time.Time
}

// NoID is the TopAppend callback's "no resolved ID" sentinel: either no
// resolver is installed or the tag is outside the resolver's domain.
const NoID = ^uint32(0)

// SetTagIDResolver installs the tag → ID mapping cached per slot and handed
// to TopAppend callbacks. The mapping must be stable: once a tag resolves to
// an ID, later calls must return the same ID (growing the domain is fine).
func (tr *Tracker) SetTagIDResolver(fn func(tag string) (uint32, bool)) {
	tr.resolve = fn
}

// NewTracker returns a tracker with the given configuration.
func NewTracker(cfg Config) *Tracker {
	c := cfg.withDefaults()
	docs := window.NewCounterArena(c.Buckets, c.Resolution)
	docs.Alloc() // docSlot
	return &Tracker{
		cfg:   c,
		slots: make(map[string]int32),
		arena: window.NewCounterArena(c.Buckets, c.Resolution),
		docs:  docs,
	}
}

// docSlot is the document total's slot in Tracker.docs.
const docSlot = 0

// smallTagSet bounds the document sizes deduplicated by quadratic scan
// instead of a per-document map — nearly every real document qualifies, so
// the steady-state Observe allocates nothing. pairs.dedupTags applies the
// same idiom with its own constant; the two paths count/pair the same tag
// sets today, so keep their empty-tag and duplicate rules in sync.
const smallTagSet = 16

// Observe records one document with the given tag set at time t. Duplicate
// tags within one document are counted once.
func (tr *Tracker) Observe(t time.Time, tags []string) {
	if t.After(tr.now) {
		tr.now = t
	}
	// One timestamp-to-bucket conversion per document, shared by the
	// document total and every tag.
	abs := tr.arena.BucketIndex(t)
	tr.docs.IncAbs(docSlot, abs)
	if len(tags) <= smallTagSet {
	small:
		for i, tag := range tags {
			if tag == "" {
				continue
			}
			for j := 0; j < i; j++ {
				if tags[j] == tag {
					continue small
				}
			}
			tr.inc(tag, abs)
		}
	} else {
		seen := make(map[string]bool, len(tags))
		for _, tag := range tags {
			if tag == "" || seen[tag] {
				continue
			}
			seen[tag] = true
			tr.inc(tag, abs)
		}
	}
	tr.sinceGC++
	if tr.sinceGC >= tr.cfg.SweepEvery {
		tr.sweep()
	}
}

// inc upserts tag's counter slot and records one document at bucket abs.
func (tr *Tracker) inc(tag string, abs int64) {
	slot, ok := tr.slots[tag]
	if !ok {
		slot = tr.arena.Alloc()
		tr.slots[tag] = slot
		for int(slot) >= len(tr.revTags) {
			tr.revTags = append(tr.revTags, "")
			tr.revIDs = append(tr.revIDs, NoID)
		}
		tr.revTags[slot] = tag
		tr.revIDs[slot] = NoID
	}
	tr.arena.IncAbs(slot, abs)
}

// sweep evicts tags whose windows have emptied, bounding memory to the tags
// active inside the window.
func (tr *Tracker) sweep() {
	tr.sinceGC = 0
	abs := tr.arena.BucketIndex(tr.now)
	for slot, tag := range tr.revTags {
		if tag == "" {
			continue
		}
		if tr.arena.PeekAbs(int32(slot), abs) == 0 {
			delete(tr.slots, tag)
			tr.revTags[slot] = ""
			tr.arena.Release(int32(slot))
		}
	}
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
func (tr *Tracker) ActiveTags() int { return len(tr.slots) }

// Top returns the k highest-scoring tags under the criterion, ties broken
// alphabetically for determinism. Tags with fewer than minCount windowed
// documents are excluded.
func (tr *Tracker) Top(k int, crit Criterion, minCount float64) []TagStat {
	return tr.TopAppend(k, crit, minCount, nil, nil)
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

// idFor returns slot's cached resolved ID, consulting the resolver (and
// caching a success) when the slot is still unresolved.
func (tr *Tracker) idFor(slot int32, tag string) uint32 {
	id := tr.revIDs[slot]
	if id == NoID && tr.resolve != nil {
		if r, ok := tr.resolve(tag); ok {
			id = r
			tr.revIDs[slot] = id
		}
	}
	return id
}

// TopAppend is Top fused with a count scan, allocation-free in steady
// state: it appends the selection to buf (pass buf[:0] to reuse the backing
// array across ticks) and, when each is non-nil, streams every tracked
// tag's positive windowed count through it along the way, with the tag's
// resolved ID (NoID when unresolved; see SetTagIDResolver). The engine's
// evaluation tick uses this to rebuild its tag-count index and reselect
// seeds in a single pass over the tag map instead of two, with a bounded
// min-heap (O(tags·log k)) replacing the full sort (O(tags·log tags)) and
// the per-tag ID cache replacing an interning-table probe per tag. The
// selected stats — values and order — are identical to Top's.
func (tr *Tracker) TopAppend(k int, crit Criterion, minCount float64, buf []TagStat, each func(tag string, id uint32, n float64)) []TagStat {
	if k <= 0 {
		if each != nil {
			abs := tr.arena.BucketIndex(tr.now)
			for slot, tag := range tr.revTags {
				if tag == "" {
					continue
				}
				if n := tr.arena.PeekAbs(int32(slot), abs); n > 0 {
					each(tag, tr.idFor(int32(slot), tag), n)
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
	for slot, tag := range tr.revTags {
		if tag == "" {
			continue
		}
		n := tr.arena.PeekAbs(int32(slot), abs)
		if n == 0 {
			continue
		}
		if each != nil {
			each(tag, tr.idFor(int32(slot), tag), n)
		}
		if n < minCount {
			continue
		}
		// Fast reject for the default criterion: with the heap full, most
		// tags rank below the root, and that one comparison needs neither
		// the TagStat nor the statPush call. The condition is exactly
		// !statWorse(root, s) specialised to ByPopularity.
		if byPop && len(h)-base == k {
			pop := 0.0
			if total > 0 {
				pop = n / total
			}
			root := &h[base]
			if pop < root.Popularity || (pop == root.Popularity && tag >= root.Tag) {
				continue
			}
		}
		s := TagStat{Tag: tag, Count: n}
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
// (the engine holds its bookkeeping lock). Reselect installs a freshly
// built seed set, so a predicate or seed slice handed out earlier keeps the
// set it was built from.
type SeedSelector struct {
	K         int
	Criterion Criterion
	MinCount  float64

	ordered []string
	// fn is the predicate over the current seed set, built once per
	// Reselect so the per-document Func call allocates no closure.
	fn func(string) bool
}

// NewSeedSelector returns a selector for the top-k tags under crit with the
// given minimum windowed count.
func NewSeedSelector(k int, crit Criterion, minCount float64) *SeedSelector {
	return &SeedSelector{
		K:         k,
		Criterion: crit,
		MinCount:  minCount,
		fn:        func(string) bool { return false },
	}
}

// Reselect recomputes the seed set from tr and returns it (ordered by
// descending score). The returned slice is never mutated afterwards.
func (s *SeedSelector) Reselect(tr *Tracker) []string {
	return s.ReselectFrom(tr.Top(s.K, s.Criterion, s.MinCount))
}

// ReselectFrom installs the seed set from an externally computed top-k stat
// slice — the fused-pass form of Reselect: the engine obtains top via
// Tracker.TopAppend (selecting with this selector's K, Criterion, and
// MinCount) while it streams tag counts for its own index, then installs
// the result here. top is only read.
func (s *SeedSelector) ReselectFrom(top []TagStat) []string {
	current := make(map[string]bool, len(top))
	ordered := make([]string, 0, len(top))
	for _, st := range top {
		current[st.Tag] = true
		ordered = append(ordered, st.Tag)
	}
	s.ordered = ordered
	s.fn = func(tag string) bool { return current[tag] }
	return ordered
}

// Func returns a predicate closed over the current seed set. The closure
// is cached per Reselect, so calling Func per document allocates nothing.
func (s *SeedSelector) Func() func(string) bool { return s.fn }

// Seeds returns the current ordered seed set. Callers must not mutate it.
func (s *SeedSelector) Seeds() []string { return s.ordered }
