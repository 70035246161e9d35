package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"enblogue/internal/pairs"
	"enblogue/internal/persona"
	"enblogue/internal/shift"
)

// This file implements the engine's subscription broker: the paper's
// "users register continuous keyword queries" model done at the API layer.
// One shared ingest pipeline computes a single broadcast ranking per tick;
// the broker fans each tick out to subscribers, each of which may carry a
// compiled predicate (tag sets, score floor, emergence-only), a persona
// profile, and a top-k, so every subscriber sees its own view of the same
// underlying topics.
//
// Dispatch is delta-driven, not broadcast-to-all. The dispatcher diffs
// each tick's ranking against the previous one on (pair, score) identity,
// then consults the subscription index (subindex.go) to find only the
// subscriptions whose predicates reference a tag that moved — every other
// predicated subscription costs nothing, not even a visit. Unpredicated
// ("full") subscriptions still receive every tick, sharing one read-only
// topic slice per tick (see Notification); persona re-rank runs only for
// subscriptions that are actually being delivered to.
//
// A predicated candidate costs one set evaluation, not one test per topic:
// on ticks with candidates the dispatcher indexes the ranking by tag (the
// rank positions each tag occurs at, as a bitset), and a compiled predicate
// is a few ORs and ANDs over those sets plus the score floor. Candidates
// whose views hold the same rank positions share one immutable payload per
// tick, so the work and the garbage follow the number of distinct views,
// not the number of subscribers that see them.
//
// Delivery runs on a dedicated dispatcher goroutine, never under the
// engine's tick/bookkeeping lock, and is non-blocking toward channel
// subscribers: every subscription has a bounded channel with drop-oldest
// semantics for slow consumers, and drops are counted per subscription. A
// slow subscriber therefore always observes the newest notifications and
// can never stall the engine, the dispatcher, or its sibling subscribers.
// A sink subscription (SubSink) is the one exception: the dispatcher calls
// it synchronously, so it never drops, and broker.wait covers its work.

// subConfig holds per-subscription settings assembled from SubOptions. It
// lives only for the duration of Subscribe: the subscription keeps just
// what dispatch reads.
type subConfig struct {
	buffer        int
	sink          func(*Notification)
	topK          int
	profile       *persona.Profile
	anyTags       []string
	allTags       []string
	minScore      float64
	emergenceOnly bool
}

// SubOption configures one subscription.
type SubOption func(*subConfig)

// SubBuffer sets the subscription's channel capacity (default 16, minimum
// 1). When the buffer is full, the oldest undelivered notification is
// dropped to make room for the newest.
func SubBuffer(n int) SubOption {
	return func(c *subConfig) { c.buffer = n }
}

// SubSink delivers the subscription's notifications by calling fn on the
// dispatcher goroutine instead of sending them on its channel. The sinks
// of one tick run after its channel sends, outside every broker lock, in
// subscription order, and a tick counts as dispatched — for Engine.Flush
// and Hub.Flush — only once they have returned. A sink subscription has no
// buffer, never drops, and its channel only closes. fn must not call the
// engine's Flush, Close or PublishRanking, which wait for the dispatcher;
// a slow fn delays every later tick's delivery. fn may call the engine's
// readers: CurrentRanking takes no lock, and DocsProcessed, ActivePairs,
// TailStats, Seeds and LastEventTime take the engine lock, which no engine
// method holds while it waits for the dispatcher. fn may still run once
// after Close returns, for a tick that was already being delivered.
func SubSink(fn func(*Notification)) SubOption {
	return func(c *subConfig) { c.sink = fn }
}

// SubTopK trims every delivered view to its best k topics. Zero (the
// default) delivers the full view.
func SubTopK(k int) SubOption {
	return func(c *subConfig) { c.topK = k }
}

// SubProfile attaches a persona to the subscription: every delivered
// view is re-ranked by preference-weighted score exactly as
// persona.Rerank would, so this subscriber sees "completely different or
// just differently ordered emergent topics". The profile is copied; later
// mutations by the caller have no effect.
func SubProfile(p *persona.Profile) SubOption {
	return func(c *subConfig) {
		if p == nil {
			c.profile = nil
			return
		}
		cp := *p
		cp.Keywords = append([]string(nil), p.Keywords...)
		cp.Categories = append([]string(nil), p.Categories...)
		c.profile = &cp
	}
}

// SubTags restricts the subscription to topics containing at least one of
// the given tags (any-of). Repeated options accumulate. The predicate is
// compiled once, at Subscribe time, into interned tag IDs; tags the stream
// has not produced yet are parked and resolved automatically when they
// first appear. A tagged subscription is delta-driven: it is notified only
// on ticks where its filtered view actually changed.
func SubTags(tags ...string) SubOption {
	return func(c *subConfig) { c.anyTags = append(c.anyTags, tags...) }
}

// SubAllTags restricts the subscription to topics containing every one of
// the given tags (all-of). A topic is a tag pair, so more than two
// all-tags can never match. Repeated options accumulate.
func SubAllTags(tags ...string) SubOption {
	return func(c *subConfig) { c.allTags = append(c.allTags, tags...) }
}

// SubMinScore suppresses topics scoring below min. Values <= 0 mean no
// floor. Like every predicate option it makes the subscription
// delta-driven: unchanged filtered views are not re-delivered.
func SubMinScore(min float64) SubOption {
	return func(c *subConfig) { c.minScore = min }
}

// SubEmergenceOnly delivers only topics newly entering the subscription's
// filtered view, and skips ticks where nothing new entered — the pure
// "tell me when something emerges" standing query.
func SubEmergenceOnly() SubOption {
	return func(c *subConfig) { c.emergenceOnly = true }
}

// Subscription is one subscriber's live feed. Receive from Notifications;
// the channel is closed when the subscription is closed (by Close, context
// cancellation, or engine Close).
type Subscription struct {
	broker  *broker
	id      uint64
	topK    int
	profile *persona.Profile // nil unless a non-empty persona is attached
	m       *matcher         // nil for full (unpredicated) subscriptions
	ch      chan *Notification
	sink    func(*Notification) // nil unless SubSink; then ch is never sent on
	// stop detaches the context.AfterFunc that closes a context-bound
	// subscription; nil otherwise. Written under the broker lock.
	stop    func() bool
	once    sync.Once
	dropped atomic.Int64

	// indexed and touched are subscription-index bookkeeping, guarded by
	// the index lock (see subIndex.mu).
	indexed bool
	touched uint64

	// lastView is the (pair, score) image of the filtered view most
	// recently evaluated for this subscription. Dispatcher-only.
	lastView []topicMark
}

// Notifications returns the subscriber's channel. One notification is
// delivered per matching evaluation tick, in tick order; when the consumer
// falls behind, the oldest buffered notifications are discarded first (see
// Dropped). Full subscriptions match every tick; predicated ones only
// ticks where their filtered view changed.
func (s *Subscription) Notifications() <-chan *Notification { return s.ch }

// Dropped returns the number of notifications discarded because this
// subscriber consumed too slowly.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Idempotent and
// safe to call concurrently with delivery.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.broker.remove(s)
		s.stopWatch()
	})
}

// stopWatch detaches the context callback, if any. Callers reach it after
// taking the broker lock, which orders it after subscribe's write of stop.
func (s *Subscription) stopWatch() {
	if s.stop != nil {
		s.stop()
	}
}

// deliverySlot pairs a subscription with the notification built for it
// this tick; the slice of slots is dispatcher scratch.
type deliverySlot struct {
	s *Subscription
	n *Notification
}

// broker fans published rankings out to subscriptions from its own
// dispatcher goroutine, through the subscription index.
type broker struct {
	// mu guards subs, closed, nextID; held during channel sends.
	//
	//enblogue:lock broker 30
	mu     sync.Mutex
	subs   map[uint64]*Subscription
	closed bool
	nextID uint64

	// idx is the inverted subscription index (its lock class nests inside
	// mu: registration/removal hold mu, then idx.mu).
	idx *subIndex

	// nsubs mirrors len(subs) so publish — which runs under the engine's
	// tick lock — can check for listeners without contending on mu against
	// an in-flight delivery.
	nsubs        atomic.Int64
	droppedTotal atomic.Int64
	// matchedLast counts notifications built on the most recent dispatch.
	matchedLast atomic.Int64

	// Dispatcher-only state: the previous tick's (pair, score) image and
	// reusable scratch, so a steady-state tick whose ranking did not move
	// any subscribed tag allocates nothing.
	seq         uint64
	prevView    []topicMark
	movedIDs    []uint32
	tickEntered []pairs.Key
	tickLeft    []pairs.Key
	candBuf     []*Subscription
	fullBuf     []*Subscription
	slotBuf     []deliverySlot
	sinkBuf     []deliverySlot
	// Per-candidate scratch: the tick's position index, the evaluated set,
	// the view's and its entrants' rank positions, the left pairs, and a
	// persona view's materialised topics.
	pos      posIndex
	viewSet  []uint64
	viewAt   []int32
	enterAt  []int32
	leftBuf  []pairs.Key
	viewBuf  []shift.Topic
	payloads payloadCache

	// qmu guards the dispatch queue. It is never held together with mu:
	// the dispatcher drains the queue under qmu, then delivers under mu.
	//
	//enblogue:lock brokerq 25
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []Ranking
	pubSeq  uint64 // rankings enqueued
	doneSeq uint64 // rankings fully dispatched
	started bool
	stopped bool
}

func newBroker() *broker {
	b := &broker{
		subs:     make(map[uint64]*Subscription),
		idx:      newSubIndex(),
		payloads: payloadCache{byHash: make(map[uint64]int32)},
	}
	b.qcond = sync.NewCond(&b.qmu)
	return b
}

// subscribe registers a new subscription, compiling its predicate options
// (if any) into a matcher and indexing it. A nil context is treated as
// context.Background(); otherwise cancelling the context closes the
// subscription through context.AfterFunc. Subscribing to a closed broker
// returns an already-closed subscription.
func (b *broker) subscribe(ctx context.Context, opts ...SubOption) *Subscription {
	cfg := subConfig{buffer: 16}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	switch {
	case cfg.sink != nil:
		cfg.buffer = 0
	case cfg.buffer < 1:
		cfg.buffer = 1
	}
	s := &Subscription{
		broker: b,
		topK:   cfg.topK,
		m:      compileMatcher(&cfg),
		ch:     make(chan *Notification, cfg.buffer),
		sink:   cfg.sink,
	}
	if p := cfg.profile; p != nil && !p.Empty() {
		s.profile = p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	s.id = b.nextID
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s.id] = s
	b.nsubs.Store(int64(len(b.subs)))
	// Index while still holding mu so a dispatch between map insert and
	// index registration cannot observe a half-registered subscription.
	b.idx.add(s)
	if ctx != nil && ctx.Done() != nil {
		// Under mu: a Close fired by an already-done ctx waits for mu in
		// remove, so it reads stop only after this write.
		s.stop = context.AfterFunc(ctx, s.Close)
	}
	return s
}

// remove detaches a subscription and closes its channel. Channel sends
// happen only under b.mu (see deliver), so closing under b.mu cannot race
// a send.
//
//enblogue:acquires broker
func (b *broker) remove(s *Subscription) {
	b.mu.Lock()
	if _, ok := b.subs[s.id]; ok {
		delete(b.subs, s.id)
		b.nsubs.Store(int64(len(b.subs)))
		b.idx.remove(s)
		close(s.ch)
	}
	b.mu.Unlock()
}

// subscribers returns the number of live subscriptions.
//
//enblogue:acquires broker
func (b *broker) subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// indexedTags returns the number of distinct interned tags referenced by
// at least one live predicate.
func (b *broker) indexedTags() int { return b.idx.tagCount() }

// matchedLastTick returns how many subscriptions were handed a
// notification on the most recent dispatch.
func (b *broker) matchedLastTick() int64 { return b.matchedLast.Load() }

// publish enqueues a ranking for dispatch. Called with the engine's tick
// lock held, so it must never block on consumers: it only appends to the
// dispatch queue (unbounded, but ticks are rare relative to any realistic
// consumer) and wakes the dispatcher. When nobody is listening it is a
// no-op.
//
//enblogue:acquires brokerq
func (b *broker) publish(r Ranking) {
	if b.nsubs.Load() == 0 {
		return
	}
	b.qmu.Lock()
	if b.stopped {
		b.qmu.Unlock()
		return
	}
	if !b.started {
		b.started = true
		go b.dispatch()
	}
	b.queue = append(b.queue, r)
	b.pubSeq++
	b.qcond.Broadcast()
	b.qmu.Unlock()
}

// dispatch is the broker's delivery loop: it pops published rankings in
// order and fans out to subscriptions. It runs outside every engine lock,
// so consumers may call back into the engine freely.
func (b *broker) dispatch() {
	for {
		b.qmu.Lock()
		for len(b.queue) == 0 && !b.stopped {
			b.qcond.Wait()
		}
		if len(b.queue) == 0 && b.stopped {
			b.qmu.Unlock()
			return
		}
		r := b.queue[0]
		// Pop by copy-down so the queue's backing array (and its start
		// offset) is preserved: the common one-entry case re-appends into
		// the same slot forever instead of reallocating every tick.
		copy(b.queue, b.queue[1:])
		b.queue[len(b.queue)-1] = Ranking{}
		b.queue = b.queue[:len(b.queue)-1]
		b.qmu.Unlock()

		b.deliver(r)

		b.qmu.Lock()
		b.doneSeq++
		b.qcond.Broadcast()
		b.qmu.Unlock()
	}
}

// diffRanking computes the tick-level delta between topics and the
// previously dispatched ranking on (pair, score) identity, filling the
// broker's movedIDs/tickEntered/tickLeft scratch. Diagnostics like the
// evaluation timestamp change every tick by construction and do not
// participate. Reports whether anything moved at all. Dispatcher-only.
func (b *broker) diffRanking(topics []shift.Topic) bool {
	b.movedIDs = b.movedIDs[:0]
	b.tickEntered = b.tickEntered[:0]
	b.tickLeft = b.tickLeft[:0]
	changed := false
	for i := range topics {
		t := &topics[i]
		prev, ok := markScore(b.prevView, t.Pair)
		if ok && prev == t.Score {
			continue
		}
		if !ok {
			b.tickEntered = append(b.tickEntered, t.Pair)
		}
		changed = true
		b.addMoved(t.Pair)
	}
	for _, m := range b.prevView {
		if !topicsContain(topics, m.key) {
			b.tickLeft = append(b.tickLeft, m.key)
			changed = true
			b.addMoved(m.key)
		}
	}
	return changed
}

func (b *broker) addMoved(k pairs.Key) {
	a, c := k.IDs()
	if !containsID(b.movedIDs, a) {
		b.movedIDs = append(b.movedIDs, a)
	}
	if !containsID(b.movedIDs, c) {
		b.movedIDs = append(b.movedIDs, c)
	}
}

func topicsContain(topics []shift.Topic, k pairs.Key) bool {
	for i := range topics {
		if topics[i].Pair == k {
			return true
		}
	}
	return false
}

// deliver dispatches one ranking: diff against the previous tick, collect
// only the touched predicated subscriptions from the index, build
// notifications outside every lock, then send non-blocking with
// drop-oldest under b.mu (channel close in remove/close is safe exactly
// because sends happen under b.mu), and finally call the sinks, in
// subscription order, with no broker lock held. The position index is
// built only when there is a predicated candidate to evaluate against it.
// A tick that moves no subscribed tag and has no full subscribers
// completes without allocating.
func (b *broker) deliver(r Ranking) {
	b.seq++
	changed := b.diffRanking(r.Topics)
	b.candBuf = b.idx.collect(b.movedIDs, changed, b.seq, b.candBuf[:0])
	b.fullBuf = b.idx.fullInto(b.fullBuf[:0])

	slots := b.slotBuf[:0]
	// Full subscriptions share one pair of tick-delta slices; materialised
	// lazily so a predicate-only population never copies the scratch.
	var entered, left []pairs.Key
	if len(b.fullBuf) > 0 {
		if len(b.tickEntered) > 0 {
			entered = append([]pairs.Key(nil), b.tickEntered...)
		}
		if len(b.tickLeft) > 0 {
			left = append([]pairs.Key(nil), b.tickLeft...)
		}
	}
	for _, s := range b.fullBuf {
		slots = append(slots, deliverySlot{s: s, n: s.fullNotification(&r, entered, left)})
	}
	if len(b.candBuf) > 0 {
		b.pos.build(r.Topics)
		b.viewSet = slices.Grow(b.viewSet[:0], b.pos.words)[:b.pos.words]
		for _, s := range b.candBuf {
			if n := b.filteredNotification(s, &r); n != nil {
				slots = append(slots, deliverySlot{s: s, n: n})
			}
		}
		b.payloads.reset()
	}
	b.matchedLast.Store(int64(len(slots)))

	sinks := b.sinkBuf[:0]
	b.mu.Lock()
	for i := range slots {
		s := slots[i].s
		if _, ok := b.subs[s.id]; !ok {
			continue // closed while the notifications were being built
		}
		n := slots[i].n
		if s.sink != nil {
			sinks = append(sinks, slots[i])
			continue
		}
		select {
		case s.ch <- n:
			continue
		default:
		}
		// Buffer full: drop the oldest buffered notification. The consumer
		// may concurrently drain the channel, so both steps stay
		// non-blocking.
		select {
		case <-s.ch:
			s.dropped.Add(1)
			b.droppedTotal.Add(1)
		default:
		}
		select {
		case s.ch <- n:
		default:
			s.dropped.Add(1)
			b.droppedTotal.Add(1)
		}
	}
	b.mu.Unlock()

	slices.SortFunc(sinks, func(x, y deliverySlot) int { return cmp.Compare(x.s.id, y.s.id) })
	for _, d := range sinks {
		d.s.sink(d.n)
	}

	b.prevView = appendMarks(b.prevView[:0], r.Topics)
	clear(slots)
	b.slotBuf = slots
	clear(sinks)
	b.sinkBuf = sinks
}

// fullNotification builds an unpredicated subscription's notification:
// the shared broadcast topics (persona-reranked into an owned slice only
// when a profile is attached), trimmed to top-k, carrying the tick-level
// delta.
func (s *Subscription) fullNotification(r *Ranking, entered, left []pairs.Key) *Notification {
	topics := r.Topics
	owned := false
	if s.profile != nil {
		topics = persona.RerankTopics(topics, s.profile)
		owned = true
	}
	if k := s.topK; k > 0 && len(topics) > k {
		topics = topics[:k]
	}
	return &Notification{at: r.At, seeds: r.Seeds, topics: topics, owned: owned, entered: entered, left: left}
}

// filteredNotification evaluates one predicated candidate against the
// tick: evaluate the compiled matcher to a rank-position set, keep its k
// lowest positions (or, with a persona, re-rank its topics into an owned
// slice and trim that), then compare the resulting view to the one this
// subscription last saw on (pair, score) identity. An unchanged view
// returns nil without allocating — the subscriber has already seen it.
// Under emergence-only, a changed view with no new entrants also returns
// nil, and a delivered payload carries only the entrants. Without a
// persona the payload is the tick's shared one for its position set.
func (b *broker) filteredNotification(s *Subscription, r *Ranking) *Notification {
	m := s.m
	m.eval(b.viewSet, &b.pos, r.Topics)
	// topics is the slice the view's positions index: the ranking itself,
	// or a persona's re-ranked copy.
	topics, at := r.Topics, appendPositions(b.viewAt[:0], b.viewSet)
	if s.profile != nil {
		topics, at = b.personaView(s, topics, at)
	} else if k := s.topK; k > 0 && len(at) > k {
		at = at[:k]
	}
	b.viewAt = at // retain grown capacity for the next candidate
	if marksEqualAt(s.lastView, topics, at) {
		return nil
	}
	enter := b.enterAt[:0]
	for _, i := range at {
		if _, ok := markScore(s.lastView, topics[i].Pair); !ok {
			enter = append(enter, i)
		}
	}
	b.enterAt = enter
	left := b.leftBuf[:0]
	for _, mk := range s.lastView {
		if !viewHas(topics, at, mk.key) {
			left = append(left, mk.key)
		}
	}
	b.leftBuf = left
	s.lastView = appendMarksAt(s.lastView[:0], topics, at)
	if m.emergenceOnly && len(enter) == 0 {
		// The view changed (scores moved or topics fell out) but nothing
		// emerged: remember the new view, deliver nothing.
		return nil
	}
	n := &Notification{at: r.At, seeds: r.Seeds}
	if len(enter)+len(left) > 0 {
		// One allocation holds both deltas.
		keys := make([]pairs.Key, 0, len(enter)+len(left))
		for _, i := range enter {
			keys = append(keys, topics[i].Pair)
		}
		keys = append(keys, left...)
		n.entered, n.left = keys[:len(enter)], keys[len(enter):]
	}
	payloadAt := at
	if m.emergenceOnly {
		payloadAt = enter
	}
	if s.profile == nil {
		n.topics = b.payloads.get(payloadAt, topics)
	} else if !m.emergenceOnly {
		n.topics, n.owned = topics, true
	} else {
		n.topics, n.owned = make([]shift.Topic, len(enter)), true
		for j, i := range enter {
			n.topics[j] = topics[i]
		}
	}
	return n
}

// personaView materialises the ranking's topics at positions at,
// re-ranks them through the subscription's persona into an owned slice
// trimmed to top-k, and returns that slice with its own positions (at's
// storage is reused: the re-ranked view is never longer).
func (b *broker) personaView(s *Subscription, topics []shift.Topic, at []int32) ([]shift.Topic, []int32) {
	if len(at) == 0 {
		return nil, at
	}
	view := b.viewBuf[:0]
	for _, i := range at {
		view = append(view, topics[i])
	}
	b.viewBuf = view
	owned := persona.RerankTopics(view, s.profile)
	if k := s.topK; k > 0 && len(owned) > k {
		owned = owned[:k]
	}
	at = at[:0]
	for i := range owned {
		at = append(at, int32(i))
	}
	return owned, at
}

// payloadCache holds one tick's predicated payloads, one immutable topic
// slice per distinct rank-position set (keyed by its ascending positions):
// every subscriber whose view (or, under emergence-only, whose entrant
// subset) is the same set of positions shares it. Notifications carry it
// copy-on-read, and the cache is reset every tick, so a payload is never
// rewritten under a subscriber that kept it. Dispatcher-only.
type payloadCache struct {
	// byHash maps a position set's hash to 1 + the index of the newest
	// entry with that hash; entries chain through next.
	byHash  map[uint64]int32
	entries []payloadEntry
	pos     []int32 // every entry's positions, back to back
}

type payloadEntry struct {
	next   int32 // 1 + index of the next entry with the same hash; 0 ends
	lo, hi int32 // the entry's positions are pos[lo:hi]
	topics []shift.Topic
}

// get returns the tick's payload for the topics at positions at
// (ascending), building it on first request. An empty set has no payload.
func (c *payloadCache) get(at []int32, topics []shift.Topic) []shift.Topic {
	if len(at) == 0 {
		return nil
	}
	h := uint64(len(at))
	for _, i := range at {
		h = (h ^ uint64(i)) * 0x9e3779b97f4a7c15
	}
	for e := c.byHash[h]; e != 0; e = c.entries[e-1].next {
		if en := &c.entries[e-1]; slices.Equal(c.pos[en.lo:en.hi], at) {
			return en.topics
		}
	}
	payload := make([]shift.Topic, len(at))
	for j, i := range at {
		payload[j] = topics[i]
	}
	lo := int32(len(c.pos))
	c.pos = append(c.pos, at...)
	c.entries = append(c.entries, payloadEntry{next: c.byHash[h], lo: lo, hi: int32(len(c.pos)), topics: payload})
	c.byHash[h] = int32(len(c.entries))
	return payload
}

// reset forgets the tick's payloads, keeping the cache's capacity.
func (c *payloadCache) reset() {
	clear(c.byHash)
	clear(c.entries)
	c.entries, c.pos = c.entries[:0], c.pos[:0]
}

// wait blocks until every ranking published before the call has been fully
// dispatched: channels fed and sinks returned. It must not be called from
// the dispatcher goroutine itself — the dispatcher cannot drain itself.
func (b *broker) wait() {
	b.qmu.Lock()
	target := b.pubSeq
	for b.doneSeq < target {
		b.qcond.Wait()
	}
	b.qmu.Unlock()
}

// close drains the queue, stops the dispatcher, and closes every
// subscription channel. Idempotent.
func (b *broker) close() {
	b.qmu.Lock()
	b.stopped = true
	b.qcond.Broadcast()
	for b.doneSeq < b.pubSeq {
		b.qcond.Wait()
	}
	b.qmu.Unlock()

	b.mu.Lock()
	b.closed = true
	detached := make([]*Subscription, 0, len(b.subs))
	//enblogue:unordered per-key detach of every subscription; close order between independent subscriber channels is immaterial
	for id, s := range b.subs {
		delete(b.subs, id)
		close(s.ch)
		detached = append(detached, s)
	}
	b.nsubs.Store(0)
	b.idx.reset()
	b.mu.Unlock()
	// Fire each subscription's once outside b.mu: a concurrent
	// Subscription.Close owns the once while waiting for b.mu in remove, so
	// running it under the lock could deadlock. remove itself is safe — the
	// map entry is already gone, so the channel is never closed twice.
	for _, s := range detached {
		s.once.Do(s.stopWatch)
	}
}
