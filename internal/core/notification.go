package core

import (
	"sync"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

// Notification is one delivered tick as a subscription sees it: the
// topics that matched (for a predicated subscription) or the whole
// broadcast ranking (for a full one), plus the delta that caused the
// delivery. Its topics are a copy-on-read view: dispatch hands every full
// subscriber the tick's ranking itself, and every predicated subscriber
// whose view holds the same rank positions one shared payload built once
// per tick. The defensive copy is materialised lazily, once, on the first
// Ranking/Topics/Seeds call — a subscriber that drops or skims a
// notification never pays for a copy at all. Shared slices are never
// written after delivery, so a retained notification never changes.
type Notification struct {
	at    time.Time
	seeds []string // shared with the engine's ranking; read-only
	// topics is shared — the broadcast ranking for a full subscription,
	// the tick's payload for its position set for a predicated one — and
	// read-only (owned=false), or, for a persona's re-ranked view, owned
	// by this notification (owned=true).
	topics []shift.Topic
	owned  bool
	// entered/left hold the delta that triggered this delivery: the
	// tick-level broadcast delta for a full subscription (possibly shared
	// with sibling full subscribers), or this subscription's own
	// filtered-view delta for a predicated one. Read-only; accessors copy.
	entered []pairs.Key
	left    []pairs.Key

	cloneOnce sync.Once
	clone     Ranking
}

// At returns the tick's evaluation time.
func (n *Notification) At() time.Time { return n.at }

// Ranking materialises this notification's full view as a Ranking. The
// copy is made on the first call and cached: every later call (and
// Topics/Seeds) returns the same backing slices, so treat the result as
// read-only — or copy it — if you call Ranking more than once. For a
// predicated subscription the ranking holds only the matched topics (or,
// under emergence-only, only the newly entered ones).
func (n *Notification) Ranking() Ranking {
	n.cloneOnce.Do(func() {
		r := Ranking{At: n.at, Seeds: append([]string(nil), n.seeds...)}
		if n.owned {
			r.Topics = n.topics
		} else if n.topics != nil {
			r.Topics = append([]shift.Topic(nil), n.topics...)
		}
		n.clone = r
	})
	return n.clone
}

// Topics returns the notification's topic view (see Ranking for
// materialisation and ownership semantics).
func (n *Notification) Topics() []shift.Topic { return n.Ranking().Topics }

// Seeds returns the seed tags active at the tick (see Ranking for
// materialisation and ownership semantics).
func (n *Notification) Seeds() []string { return n.Ranking().Seeds }

// Entered returns the pairs that entered the view relative to the
// previous delivery: the broadcast ranking's entrants for a full
// subscription, this subscription's filtered-view entrants for a
// predicated one. The caller owns the returned slice.
func (n *Notification) Entered() []pairs.Key {
	if len(n.entered) == 0 {
		return nil
	}
	return append([]pairs.Key(nil), n.entered...)
}

// Left returns the pairs that left the view relative to the previous
// delivery (see Entered for scope). The caller owns the returned slice.
func (n *Notification) Left() []pairs.Key {
	if len(n.left) == 0 {
		return nil
	}
	return append([]pairs.Key(nil), n.left...)
}
