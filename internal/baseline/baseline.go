// Package baseline implements a TwitterMonitor-style trend detector
// (Mathioudakis & Koudas, SIGMOD 2010), the closest prior system the paper
// compares its approach against: "Their Twitter Monitor system discovers
// topic trends in tweets, by detecting bursts of tags or tag groups. Tag
// groups are formed by clustering co-occurring tags. ... unlike looking
// solely for bursty tags, we detect shifts in tag correlations."
//
// The detector flags individual tags whose arrival rate in the current
// window significantly exceeds their historical expectation, then clusters
// co-bursting tags into groups by windowed co-occurrence. Its per-tag
// counts live in a window.CounterArena and its co-occurrence counts in a
// pairs.Tracker — the window substrate enBlogue counts with — so
// head-to-head comparisons isolate the algorithmic difference (per-tag
// bursts vs pair-correlation shifts).
package baseline

import (
	"math"
	"sort"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/window"
)

// Config parameterises a BurstDetector.
type Config struct {
	// Buckets and Resolution define the current-rate window.
	Buckets    int
	Resolution time.Duration
	// Alpha smooths the historical expectation (EWMA over per-tick window
	// counts). Zero means 0.25.
	Alpha float64
	// Threshold is the burst trigger: current/expected must exceed it.
	// Zero means 3.
	Threshold float64
	// MinCount is the minimum windowed count for a burst ("significant").
	// Zero means 5.
	MinCount float64
	// GroupJaccard is the minimum pairwise Jaccard between co-bursting
	// tags for them to share a group. Zero means 0.2.
	GroupJaccard float64
}

func (c Config) withDefaults() Config {
	if c.Buckets == 0 {
		c.Buckets = 48
	}
	if c.Resolution == 0 {
		c.Resolution = time.Hour
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.MinCount <= 0 {
		c.MinCount = 5
	}
	if c.GroupJaccard <= 0 {
		c.GroupJaccard = 0.2
	}
	return c
}

// Burst is one bursty tag at a tick.
type Burst struct {
	Tag string
	// Score is current/expected — how many times over its historical rate
	// the tag is running.
	Score float64
	// Current is the windowed count now; Expected the smoothed history.
	Current  float64
	Expected float64
	At       time.Time
}

// Group is a cluster of co-bursting tags — TwitterMonitor's "topic".
type Group struct {
	// Tags are the member tags, sorted.
	Tags []string
	// Score is the maximum member burst score.
	Score float64
	At    time.Time
}

// tagState is one tag's windowed count (an arena slot) and its smoothed
// historical expectation.
type tagState struct {
	slot     int32
	expected *predict.EWMA
}

// BurstDetector tracks per-tag rates and detects bursts at tick time. Not
// safe for concurrent use.
type BurstDetector struct {
	cfg     Config
	tags    map[string]*tagState
	counts  *window.CounterArena
	cooc    *pairs.Tracker
	now     time.Time
	sinceGC int
	ticks   int
}

// NewBurstDetector returns a detector with the given configuration.
func NewBurstDetector(cfg Config) *BurstDetector {
	c := cfg.withDefaults()
	return &BurstDetector{
		cfg:    c,
		tags:   make(map[string]*tagState),
		counts: window.NewCounterArena(c.Buckets, c.Resolution),
		cooc: pairs.NewTracker(pairs.Config{
			Buckets:    c.Buckets,
			Resolution: c.Resolution,
		}),
	}
}

// Observe feeds one document's tag set at time t.
func (d *BurstDetector) Observe(t time.Time, tags []string) {
	if t.After(d.now) {
		d.now = t
	}
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if tag == "" || seen[tag] {
			continue
		}
		seen[tag] = true
		st, ok := d.tags[tag]
		if !ok {
			st = &tagState{
				slot:     d.counts.Alloc(),
				expected: predict.NewEWMA(d.cfg.Alpha),
			}
			d.tags[tag] = st
		}
		d.counts.Inc(st.slot, t)
	}
	// Track all-pairs co-occurrence for burst grouping.
	d.cooc.Observe(t, tags, nil)
	d.sinceGC++
	if d.sinceGC >= 4096 {
		d.sweep()
	}
}

func (d *BurstDetector) sweep() {
	d.sinceGC = 0
	for tag, st := range d.tags {
		if exp, _ := st.expected.Predict(); d.counts.ValueAt(st.slot, d.now) == 0 && exp < 0.5 {
			delete(d.tags, tag)
			d.counts.Release(st.slot)
		}
	}
}

// Tick evaluates all tags at time t, returns the bursting ones sorted by
// descending score, and folds the current counts into the historical
// expectation. Call at regular intervals, like the shift detector's ticks.
func (d *BurstDetector) Tick(t time.Time) []Burst {
	if t.After(d.now) {
		d.now = t
	}
	var out []Burst
	for tag, st := range d.tags {
		cur := d.counts.ValueAt(st.slot, t)
		exp, hadHistory := st.expected.Predict()
		st.expected.Observe(cur)
		if !hadHistory && d.ticks == 0 {
			// The detector's very first tick has no history for anything:
			// seed expectations silently. A tag first evaluated on a later
			// tick, however, is a genuinely NEW keyword — TwitterMonitor's
			// bread and butter — and scores against a zero expectation.
			continue
		}
		// Laplace-style floor keeps brand-new tags from dividing by zero
		// while still letting genuinely new tags burst.
		score := cur / math.Max(exp, 1)
		if cur >= d.cfg.MinCount && score >= d.cfg.Threshold {
			out = append(out, Burst{
				Tag:      tag,
				Score:    score,
				Current:  cur,
				Expected: exp,
				At:       t,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	d.ticks++
	return out
}

// Groups clusters the given bursts into co-occurrence groups: two bursting
// tags join the same group when the Jaccard of their windowed document sets
// reaches GroupJaccard. Connected components become Groups, sorted by
// descending score.
func (d *BurstDetector) Groups(bursts []Burst) []Group {
	n := len(bursts)
	if n == 0 {
		return nil
	}
	// Union-find over burst indices.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	counts := make(map[string]float64, n)
	for _, b := range bursts {
		counts[b.Tag] = b.Current
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := bursts[i].Tag, bursts[j].Tag
			nab := d.cooc.Cooccurrence(pairs.MakeKey(a, b))
			jac := pairs.Jaccard.Compute(nab, counts[a], counts[b], 0)
			if jac >= d.cfg.GroupJaccard {
				union(i, j)
			}
		}
	}
	byRoot := make(map[int]*Group)
	for i, b := range bursts {
		r := find(i)
		g, ok := byRoot[r]
		if !ok {
			g = &Group{At: b.At}
			byRoot[r] = g
		}
		g.Tags = append(g.Tags, b.Tag)
		if b.Score > g.Score {
			g.Score = b.Score
		}
	}
	out := make([]Group, 0, len(byRoot))
	for _, g := range byRoot {
		sort.Strings(g.Tags)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tags[0] < out[j].Tags[0]
	})
	return out
}

// TopicPairs flattens burst groups into tag pairs for head-to-head
// comparison with enBlogue's pair ranking: every within-group pair inherits
// the group score; singleton groups yield no pair.
func TopicPairs(groups []Group) []pairs.Key {
	var out []pairs.Key
	seen := make(map[pairs.Key]bool)
	for _, g := range groups {
		for i := 0; i < len(g.Tags); i++ {
			for j := i + 1; j < len(g.Tags); j++ {
				k := pairs.MakeKey(g.Tags[i], g.Tags[j])
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}
