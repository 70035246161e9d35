package core

// This file implements the broker's subscription index: the data structures
// that turn per-tick fan-out from O(subscribers) into O(subscribers whose
// predicates reference a tag that actually moved).
//
// Each predicated subscription compiles its options once, at Subscribe
// time, into a flat matcher struct over interned uint32 tag IDs — the
// compile-once/evaluate-cheap shape of a plan cache for standing queries.
// The matchers are indexed invertedly: tag ID → posting set of interested
// subscriptions, plus a wildcard set for predicates with no tag constraint
// (min-score or emergence-only alone) and a full set for unpredicated
// subscriptions. A tick's dispatch then diffs the new ranking against the
// previous one, looks up only the moved tags' postings, and leaves every
// other predicated subscription untouched — zero work, zero allocations.
// A candidate's matcher is then evaluated once per tick, as unions and
// intersections of the rank-position sets of its tags (posIndex, below),
// never topic by topic.
//
// Tag IDs are resolved through intern.Find, never intern.Intern: ID
// assignment stays an ingest-path-only event (the property DESIGN.md §6
// relies on), so a subscription naming a tag the stream has not produced
// yet parks the tag in a pending set. Pending tags are re-resolved at
// dispatch time, and only when the intern table has actually grown since
// the last attempt — a subscription to a tag that never appears costs one
// table-length check per tick, not a lookup.

import (
	"math/bits"
	"sync"

	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

// matcher is one subscription's compiled predicate: tag constraints as
// interned IDs, the score floor, and the emergence-only flag. It is built
// once at Subscribe time and never reallocated; the only post-compile
// mutation is pending-tag resolution, performed under the index lock and
// only ever by the dispatcher.
type matcher struct {
	// any matches topics containing at least one of these tag IDs.
	any []uint32
	// all matches only topics containing every one of these tag IDs (a
	// topic is a pair, so more than two all-tags can never match).
	all []uint32
	// pendingAny/pendingAll hold predicate tags the stream has not
	// interned yet. They cannot match anything until resolved — a tag
	// with no ID has never been part of a candidate pair.
	pendingAny []string
	pendingAll []string
	// minScore suppresses topics scoring below it (0 = no floor).
	minScore float64
	// emergenceOnly delivers only topics newly entering the filtered
	// view, and skips ticks where nothing new entered.
	emergenceOnly bool
}

// compileMatcher builds the flat matcher for a subscription's predicate
// options, or returns nil when the subscription carries no predicate at
// all (a full subscription: every tick, whole ranking).
func compileMatcher(cfg *subConfig) *matcher {
	if len(cfg.anyTags) == 0 && len(cfg.allTags) == 0 &&
		cfg.minScore <= 0 && !cfg.emergenceOnly {
		return nil
	}
	m := &matcher{emergenceOnly: cfg.emergenceOnly}
	if cfg.minScore > 0 {
		m.minScore = cfg.minScore
	}
	m.any, m.pendingAny = resolveTags(cfg.anyTags)
	m.all, m.pendingAll = resolveTags(cfg.allTags)
	return m
}

// resolveTags splits a deduplicated tag list into already-interned IDs and
// pending strings, through intern.Find only — compiling a predicate must
// never assign IDs (see the package comment above).
func resolveTags(tags []string) (ids []uint32, pending []string) {
	for i, tag := range tags {
		if tag == "" || containsString(tags[:i], tag) {
			continue
		}
		if id, ok := intern.Find(tag); ok {
			ids = append(ids, id)
		} else {
			pending = append(pending, tag)
		}
	}
	return ids, pending
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func containsID(list []uint32, id uint32) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}

// tagged reports whether the matcher has any tag constraint, resolved or
// pending. Untagged matchers live in the index's wildcard set.
func (m *matcher) tagged() bool {
	return len(m.any)+len(m.all)+len(m.pendingAny)+len(m.pendingAll) > 0
}

// eval writes into dst (ix.words wide) the rank positions of the topics
// the predicate keeps: the union of the any-of tags' position sets (every
// position when there is no any-of term), intersected with each all-of
// tag's set, then thinned bit by bit by the score floor. A pending all-of
// tag gives the empty set: no pair can contain a tag never interned.
//
//enblogue:hotpath
func (m *matcher) eval(dst []uint64, ix *posIndex, topics []shift.Topic) {
	clear(dst)
	if len(m.pendingAll) > 0 {
		return
	}
	if len(m.any)+len(m.pendingAny) > 0 {
		for _, id := range m.any {
			if set := ix.set(id); set != nil {
				for w := range dst {
					dst[w] |= set[w]
				}
			}
		}
	} else {
		for w := range dst {
			dst[w] = ^uint64(0)
		}
		if r := len(topics) % 64; r != 0 {
			dst[len(dst)-1] = 1<<r - 1
		}
	}
	for _, id := range m.all {
		set := ix.set(id)
		if set == nil {
			clear(dst)
			return
		}
		for w := range dst {
			dst[w] &= set[w]
		}
	}
	for w := range dst {
		for rest := dst[w]; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			if topics[w*64+bit].Score < m.minScore {
				dst[w] &^= 1 << bit
			}
		}
	}
}

// resolve migrates tag from the matcher's pending sets to its ID sets.
// Reports whether the matcher referenced the tag at all. Called only under
// the index lock.
func (m *matcher) resolve(tag string, id uint32) bool {
	found := false
	if i := indexOfString(m.pendingAny, tag); i >= 0 {
		m.pendingAny = append(m.pendingAny[:i], m.pendingAny[i+1:]...)
		if !containsID(m.any, id) {
			m.any = append(m.any, id)
		}
		found = true
	}
	if i := indexOfString(m.pendingAll, tag); i >= 0 {
		m.pendingAll = append(m.pendingAll[:i], m.pendingAll[i+1:]...)
		if !containsID(m.all, id) {
			m.all = append(m.all, id)
		}
		found = true
	}
	return found
}

func indexOfString(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

// topicMark is the identity dispatch uses to decide whether a topic
// "moved" between ticks: the pair plus its score. Diagnostics
// (correlation, the evaluation timestamp) change every tick by
// construction and deliberately do not participate — a topic whose pair
// and score are both unchanged is the same topic, and a subscriber whose
// view consists only of such topics has seen everything already.
type topicMark struct {
	key   pairs.Key
	score float64
}

// appendMarks renders topics into dst as (pair, score) marks, reusing
// dst's capacity.
func appendMarks(dst []topicMark, topics []shift.Topic) []topicMark {
	for i := range topics {
		dst = append(dst, topicMark{key: topics[i].Pair, score: topics[i].Score})
	}
	return dst
}

// appendMarksAt renders the topics at positions at into dst as marks.
func appendMarksAt(dst []topicMark, topics []shift.Topic, at []int32) []topicMark {
	for _, i := range at {
		dst = append(dst, topicMark{key: topics[i].Pair, score: topics[i].Score})
	}
	return dst
}

// marksEqualAt reports whether the topics at positions at render to
// exactly marks, in order.
func marksEqualAt(marks []topicMark, topics []shift.Topic, at []int32) bool {
	if len(marks) != len(at) {
		return false
	}
	for j, i := range at {
		if marks[j].key != topics[i].Pair || marks[j].score != topics[i].Score {
			return false
		}
	}
	return true
}

// viewHas reports whether key is the pair of a topic at one of positions at.
func viewHas(topics []shift.Topic, at []int32, key pairs.Key) bool {
	for _, i := range at {
		if topics[i].Pair == key {
			return true
		}
	}
	return false
}

// markScore returns the score recorded for key in marks, if present.
func markScore(marks []topicMark, key pairs.Key) (float64, bool) {
	for _, m := range marks {
		if m.key == key {
			return m.score, true
		}
	}
	return 0, false
}

// posIndex is the dispatcher's per-tick position index: for every
// interned tag ID in the tick's ranking, the set of rank positions whose
// pair contains it. A set is ⌈len(topics)/64⌉ words wide, bit i standing
// for topics[i]. The index is dense in tag IDs and is reset through the
// list of IDs it touched, so once warmed it builds without a map or an
// allocation. The dispatcher builds it only on ticks with a predicated
// candidate.
type posIndex struct {
	words int
	// slot maps a tag ID to 1 + the index of its set; 0 means no topic of
	// the tick contains the tag.
	slot []uint32
	ids  []uint32 // tag IDs holding a slot this tick
	sets []uint64 // one set per slot, words each, back to back
}

// build indexes topics. IDs the intern table never issued (the zero Key
// carries one) are skipped: no predicate can name them.
//
//enblogue:hotpath
func (ix *posIndex) build(topics []shift.Topic) {
	for _, id := range ix.ids {
		ix.slot[id] = 0
	}
	ix.ids, ix.sets = ix.ids[:0], ix.sets[:0]
	ix.words = (len(topics) + 63) / 64
	issued := uint32(intern.Tags.Len())
	for i := range topics {
		a, b := topics[i].Pair.IDs()
		if a < issued {
			ix.mark(a, i)
		}
		if b < issued {
			ix.mark(b, i)
		}
	}
}

// mark adds rank position pos to id's set.
//
//enblogue:hotpath
func (ix *posIndex) mark(id uint32, pos int) {
	if int(id) >= len(ix.slot) {
		ix.slot = append(ix.slot, make([]uint32, int(id)+1-len(ix.slot))...)
	}
	if ix.slot[id] == 0 {
		ix.ids = append(ix.ids, id)
		ix.sets = append(ix.sets, make([]uint64, ix.words)...)
		ix.slot[id] = uint32(len(ix.ids))
	}
	ix.sets[int(ix.slot[id]-1)*ix.words+pos/64] |= 1 << (pos % 64)
}

// set returns id's position set, or nil when no topic of the tick
// contains id.
func (ix *posIndex) set(id uint32) []uint64 {
	if int(id) >= len(ix.slot) || ix.slot[id] == 0 {
		return nil
	}
	off := int(ix.slot[id]-1) * ix.words
	return ix.sets[off : off+ix.words]
}

// appendPositions appends set's positions to dst in ascending (rank)
// order.
func appendPositions(dst []int32, set []uint64) []int32 {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// subIndex is the inverted subscription index. It is guarded by its own
// lock class, nested inside the broker's subscription lock (Subscribe and
// Close register/deregister while holding broker.mu) and outside the
// interner's (pending resolution calls intern.Find).
type subIndex struct {
	// mu guards every field below, plus each indexed subscription's
	// touched/indexed fields and (for pending resolution) its matcher.
	//
	//enblogue:lock subidx 33
	mu sync.Mutex

	// byTag maps an interned tag ID to the set of subscriptions whose
	// predicates reference it, keyed by subscription ID for O(1) removal.
	byTag map[uint32]map[uint64]*Subscription
	// wildcard holds predicated subscriptions with no tag constraint
	// (min-score and/or emergence-only alone): they are candidates on any
	// tick whose ranking changed at all.
	wildcard map[uint64]*Subscription
	// full holds unpredicated subscriptions: every tick, whole ranking.
	full map[uint64]*Subscription
	// pending maps not-yet-interned predicate tags to the subscriptions
	// waiting on them.
	pending map[string][]*Subscription
	// fresh holds predicated subscriptions that have not been through a
	// dispatch yet: their first tick force-evaluates them even if nothing
	// moved, so a subscriber to an already-stable tag still receives its
	// initial view.
	fresh []*Subscription
	// internLen is the intern-table length pending was last resolved
	// against; resolution is skipped while the table has not grown.
	internLen int
}

func newSubIndex() *subIndex {
	return &subIndex{
		byTag:    make(map[uint32]map[uint64]*Subscription),
		wildcard: make(map[uint64]*Subscription),
		full:     make(map[uint64]*Subscription),
		pending:  make(map[string][]*Subscription),
	}
}

// add registers a subscription under every tag its compiled matcher
// references (or the wildcard/full sets). Called with broker.mu held.
//
//enblogue:acquires subidx
func (ix *subIndex) add(s *Subscription) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s.indexed = true
	m := s.m
	if m == nil {
		ix.full[s.id] = s
		return
	}
	if !m.tagged() {
		ix.wildcard[s.id] = s
	}
	for _, id := range m.any {
		ix.addPosting(id, s)
	}
	for _, id := range m.all {
		ix.addPosting(id, s)
	}
	for _, tag := range m.pendingAny {
		ix.pending[tag] = append(ix.pending[tag], s)
	}
	for _, tag := range m.pendingAll {
		if !containsString(m.pendingAny, tag) {
			ix.pending[tag] = append(ix.pending[tag], s)
		}
	}
	if len(m.pendingAny)+len(m.pendingAll) > 0 {
		// Force the next resolution pass: the tag may have been interned
		// between matcher compilation and this registration, in which case
		// the table-length short-circuit would otherwise skip it forever.
		ix.internLen = -1
	}
	ix.fresh = append(ix.fresh, s)
}

func (ix *subIndex) addPosting(id uint32, s *Subscription) {
	posting := ix.byTag[id]
	if posting == nil {
		posting = make(map[uint64]*Subscription)
		ix.byTag[id] = posting
	}
	posting[s.id] = s
}

// remove deregisters a subscription from every structure referencing it.
// Called with broker.mu held; idempotent.
//
//enblogue:acquires subidx
func (ix *subIndex) remove(s *Subscription) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !s.indexed {
		return
	}
	s.indexed = false
	m := s.m
	if m == nil {
		delete(ix.full, s.id)
		return
	}
	delete(ix.wildcard, s.id)
	for _, id := range m.any {
		ix.dropPosting(id, s)
	}
	for _, id := range m.all {
		ix.dropPosting(id, s)
	}
	for _, tag := range m.pendingAny {
		ix.dropPending(tag, s)
	}
	for _, tag := range m.pendingAll {
		ix.dropPending(tag, s)
	}
}

func (ix *subIndex) dropPosting(id uint32, s *Subscription) {
	if posting := ix.byTag[id]; posting != nil {
		delete(posting, s.id)
		if len(posting) == 0 {
			delete(ix.byTag, id)
		}
	}
}

func (ix *subIndex) dropPending(tag string, s *Subscription) {
	list := ix.pending[tag]
	for i, v := range list {
		if v == s {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			ix.pending[tag] = list[:len(list)-1]
			break
		}
	}
	if len(ix.pending[tag]) == 0 {
		delete(ix.pending, tag)
	}
}

// resolveLocked re-resolves pending predicate tags against the intern
// table, migrating hits into posting lists. Skipped entirely while the
// table has not grown since the last attempt.
//
//enblogue:requires subidx
func (ix *subIndex) resolveLocked() {
	if len(ix.pending) == 0 {
		return
	}
	n := intern.Tags.Len()
	if n == ix.internLen {
		return
	}
	ix.internLen = n
	//enblogue:unordered pending-tag resolution: each tag migrates independently into its own posting list, so resolution order between distinct tags is immaterial
	for tag, subs := range ix.pending {
		id, ok := intern.Find(tag)
		if !ok {
			continue
		}
		for _, s := range subs {
			if s.m.resolve(tag, id) && s.indexed {
				ix.addPosting(id, s)
			}
		}
		delete(ix.pending, tag)
	}
}

// collect appends the tick's candidate predicated subscriptions to buf:
// every fresh subscription, plus — when the ranking changed at all — the
// wildcard set and the posting list of every moved tag. Deduplication is
// by stamping each subscription's touched field with the dispatch
// sequence, so a subscription indexed under several moved tags is
// evaluated once. Untouched subscriptions are never visited at all.
//
//enblogue:acquires subidx
func (ix *subIndex) collect(moved []uint32, changed bool, seq uint64, buf []*Subscription) []*Subscription {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.resolveLocked()
	take := func(s *Subscription) {
		if s.touched != seq {
			s.touched = seq
			buf = append(buf, s)
		}
	}
	for _, s := range ix.fresh {
		if s.indexed {
			take(s)
		}
	}
	clear(ix.fresh)
	ix.fresh = ix.fresh[:0]
	if changed {
		//enblogue:unordered wildcard candidates: each subscription is evaluated independently against the same ranking, so collection order is immaterial
		for _, s := range ix.wildcard {
			take(s)
		}
		for _, id := range moved {
			//enblogue:unordered posting-list candidates: each subscription is evaluated independently against the same ranking, so collection order is immaterial
			for _, s := range ix.byTag[id] {
				take(s)
			}
		}
	}
	return buf
}

// fullInto appends every unpredicated subscription to buf.
//
//enblogue:acquires subidx
func (ix *subIndex) fullInto(buf []*Subscription) []*Subscription {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	//enblogue:unordered full-subscription collection: each subscription receives on its own channel, so order between subscribers is immaterial
	for _, s := range ix.full {
		buf = append(buf, s)
	}
	return buf
}

// tagCount returns the number of distinct interned tags with at least one
// interested subscription.
//
//enblogue:acquires subidx
func (ix *subIndex) tagCount() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.byTag)
}

// reset drops every index structure; used by broker.close so a closed
// engine retains no subscription state.
//
//enblogue:acquires subidx
func (ix *subIndex) reset() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	clear(ix.byTag)
	clear(ix.wildcard)
	clear(ix.full)
	clear(ix.pending)
	clear(ix.fresh)
	ix.fresh = ix.fresh[:0]
}
