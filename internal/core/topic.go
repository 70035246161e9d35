package core

import (
	"sort"
	"strings"

	"enblogue/internal/pairs"
)

// ExpandTopic grows a detected pair into a tag set: the pair plus up to
// maxExtra tags that currently co-occur with both members. The paper:
// "these trends consist of pairs or, in general, sets of tags", which
// "offers the possibility of a full exploration of social media given the
// detected tag set as input".
//
// Expansion strength of a candidate tag x is min(cooc(t1,x), cooc(t2,x)):
// x must accompany both members to belong to the topic. Only pairs already
// tracked (i.e. containing a seed) can contribute, which is exactly the
// candidate universe the engine maintains.
//
//enblogue:acquires engine
func (e *Engine) ExpandTopic(k pairs.Key, maxExtra int) []string {
	tag1, tag2 := k.Tag1(), k.Tag2()
	set := []string{tag1, tag2}
	if maxExtra <= 0 {
		return set
	}
	co1 := make(map[string]float64)
	co2 := make(map[string]float64)
	e.mu.Lock()
	for _, kk := range e.m.pairsTr.Keys() {
		if o, ok := kk.Other(tag1); ok && o != tag2 {
			if c := e.m.pairsTr.Cooccurrence(kk); c > 0 {
				co1[o] = c
			}
		}
		if o, ok := kk.Other(tag2); ok && o != tag1 {
			if c := e.m.pairsTr.Cooccurrence(kk); c > 0 {
				co2[o] = c
			}
		}
	}
	e.mu.Unlock()
	type cand struct {
		tag      string
		strength float64
	}
	var cands []cand
	//enblogue:unordered collect-then-sort: cands are sorted by (strength, tag) before use
	for tag, c1 := range co1 {
		if c2, ok := co2[tag]; ok {
			s := c1
			if c2 < s {
				s = c2
			}
			cands = append(cands, cand{tag, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].strength != cands[j].strength {
			return cands[i].strength > cands[j].strength
		}
		return cands[i].tag < cands[j].tag
	})
	for i := 0; i < len(cands) && i < maxExtra; i++ {
		set = append(set, cands[i].tag)
	}
	return set
}

// KeywordQuery renders a topic tag set as the traditional keyword query the
// paper proposes as the hand-off to downstream exploration. Multi-word tags
// (canonical entity names) are quoted.
func KeywordQuery(tags []string) string {
	parts := make([]string, 0, len(tags))
	for _, t := range tags {
		if t == "" {
			continue
		}
		if strings.ContainsAny(t, " \t") {
			parts = append(parts, `"`+t+`"`)
			continue
		}
		parts = append(parts, t)
	}
	return strings.Join(parts, " ")
}
