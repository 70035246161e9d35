// Package persona implements the paper's personalization component: "users
// to register continuous keyword queries or to choose pre-selected topic
// categories to influence the nature of the emergent topics presented...
// The topics will be ranked according to the specified user preferences and
// each user will be presented with a list containing completely different
// or just differently ordered emergent topics."
package persona

import (
	"sort"
	"strings"
	"sync"

	"enblogue/internal/pairs"
	"enblogue/internal/shift"
	"enblogue/internal/text"
)

// Topic is a scored emergent-topic candidate handed to personalization.
type Topic struct {
	Pair  pairs.Key
	Score float64
}

// Profile is one user's standing preferences.
type Profile struct {
	// Name identifies the user/session.
	Name string
	// Keywords is the continuous keyword query: terms of interest matched
	// against topic tags (normalized; a keyword matches a tag when equal
	// or contained as a substring).
	Keywords []string
	// Categories are pre-selected topic categories matched exactly against
	// topic tags.
	Categories []string
	// Boost multiplies a topic's score once per matching tag. Zero means
	// the default 3.
	Boost float64
	// Exclusive drops topics with no matching tag instead of merely
	// down-ranking them ("completely different or just differently
	// ordered").
	Exclusive bool
}

// normalized returns a copy of the profile with normalized match terms.
func (p *Profile) normalized() (keywords, categories []string) {
	return text.NormalizeAll(p.Keywords), text.NormalizeAll(p.Categories)
}

// boost returns the effective boost factor.
func (p *Profile) boost() float64 {
	if p.Boost <= 0 {
		return 3
	}
	return p.Boost
}

// MatchTag reports whether a single tag matches the profile.
func (p *Profile) MatchTag(tag string) bool {
	tag = text.Normalize(tag)
	if tag == "" {
		return false
	}
	keywords, categories := p.normalized()
	for _, c := range categories {
		if tag == c {
			return true
		}
	}
	for _, k := range keywords {
		if tag == k || strings.Contains(tag, k) {
			return true
		}
	}
	return false
}

// Matches counts how many of the topic's two tags match the profile (0-2).
func (p *Profile) Matches(k pairs.Key) int {
	n := 0
	if p.MatchTag(k.Tag1()) {
		n++
	}
	if p.MatchTag(k.Tag2()) {
		n++
	}
	return n
}

// Weight returns the multiplicative preference weight for a topic:
// boost^matches, or 0 for non-matching topics of an Exclusive profile.
func (p *Profile) Weight(k pairs.Key) float64 {
	m := p.Matches(k)
	if m == 0 {
		if p.Exclusive {
			return 0
		}
		return 1
	}
	w := p.boost()
	if m == 2 {
		w *= p.boost()
	}
	return w
}

// Empty reports whether the profile expresses no preference at all.
func (p *Profile) Empty() bool {
	return len(p.Keywords) == 0 && len(p.Categories) == 0
}

// Rerank applies the profile to the topic list and returns a new list
// sorted by preference-weighted score (descending, ties by pair string).
// Topics weighted to zero are dropped. An empty profile returns the input
// order (a fresh copy, re-sorted by raw score).
func Rerank(topics []Topic, p *Profile) []Topic {
	out := make([]Topic, 0, len(topics))
	for _, t := range topics {
		w := 1.0
		if p != nil && !p.Empty() {
			w = p.Weight(t.Pair)
		}
		if w == 0 {
			continue
		}
		out = append(out, Topic{Pair: t.Pair, Score: t.Score * w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pair.String() < out[j].Pair.String()
	})
	return out
}

// RerankTopics is Rerank over full ranked topics: the order and the
// preference-weighted scores are Rerank's, and each topic keeps its other
// fields (correlation, co-occurrence). The returned slice is freshly
// allocated.
func RerankTopics(topics []shift.Topic, p *Profile) []shift.Topic {
	ptopics := make([]Topic, len(topics))
	byPair := make(map[pairs.Key]shift.Topic, len(topics))
	for i, t := range topics {
		ptopics[i] = Topic{Pair: t.Pair, Score: t.Score}
		byPair[t.Pair] = t
	}
	reranked := Rerank(ptopics, p)
	out := make([]shift.Topic, len(reranked))
	for i, pt := range reranked {
		t := byPair[pt.Pair]
		t.Score = pt.Score
		out[i] = t
	}
	return out
}

// Registry holds the standing profiles of all connected users. It powers
// show case 3, where "users can change their preferences at any time and
// observe the impact". Safe for concurrent use: HTTP handlers register
// profiles while the ranking publisher reranks against them. Stored
// profiles are copied on Set and never mutated afterwards, so readers need
// no lock beyond the map access.
type Registry struct {
	mu       sync.RWMutex
	profiles map[string]*Profile
}

// NewRegistry returns an empty profile registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[string]*Profile)}
}

// Set registers or replaces the profile under its name.
func (r *Registry) Set(p *Profile) {
	if p == nil || p.Name == "" {
		return
	}
	cp := *p
	r.mu.Lock()
	r.profiles[p.Name] = &cp
	r.mu.Unlock()
}

// Get returns the profile registered under name, or nil. Callers must not
// mutate it.
func (r *Registry) Get(name string) *Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.profiles[name]
}

// Remove deletes a profile.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	delete(r.profiles, name)
	r.mu.Unlock()
}

// Len returns the number of registered profiles.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.profiles)
}

// Names returns the registered profile names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.profiles))
	for n := range r.profiles {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// RerankAll produces each registered user's personalized view of the
// topics, keyed by profile name.
func (r *Registry) RerankAll(topics []Topic) map[string][]Topic {
	r.mu.RLock()
	profiles := make(map[string]*Profile, len(r.profiles))
	for name, p := range r.profiles {
		profiles[name] = p
	}
	r.mu.RUnlock()
	out := make(map[string][]Topic, len(profiles))
	for name, p := range profiles {
		out[name] = Rerank(topics, p)
	}
	return out
}
