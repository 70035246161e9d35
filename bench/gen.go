package main

import (
	"fmt"
	"math/rand"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/stream"
)

// streamSpec is the shape of one workload's document stream, in the idiom
// of source.GenerateTweets/GenerateArchive: a Zipf-distributed background
// tag vocabulary plus scripted happenings with known start times. Unlike
// those generators, documents are laid out on an exact grid — DocsPerTick
// background documents per evaluation interval, the first one exactly on
// the tick boundary — so docs/tick is a constant of the spec, not of the
// seed, and a batch cut at a boundary always starts with the document that
// fires the tick.
type streamSpec struct {
	Tags      int     // background vocabulary size
	ZipfS     float64 // Zipf skew of tag popularity (> 1)
	MeanTags  int     // tags per document, uniform in [1, 2·MeanTags−1]
	TickEvery time.Duration
	// DocsPerTick background documents arrive per evaluation interval.
	DocsPerTick int
	// PassTicks intervals make one pass; long runs replay the base pass
	// re-timestamped one pass span later each time (the idiom
	// BenchmarkThroughputSharded uses), so the window keeps sliding.
	PassTicks int
	// Happenings per pass. Each pairs one of the stream's own mid-rank
	// seed tags with a tag minted for that pass and happening, as a burst
	// of HappeningDocs documents inside a single interval: the pair goes
	// from never seen to strongly correlated between two ticks. Successive
	// happenings rotate through several seed tags, so no tag's popularity
	// is inflated by its own bursts still sitting in the window.
	Happenings    int
	HappeningDocs int
	// HappeningEvery spaces happenings out: only every n-th pass carries
	// them (0 means every pass). A topic's score is the decayed maximum of
	// its past shifts with a two-day half-life, so bursts of equal strength
	// closer together than a fraction of that would fill the top-k with
	// their own barely-decayed predecessors and crowd the newest one out.
	HappeningEvery int
	// SeedCount mirrors the engine option: happening seed tags are drawn
	// from ranks [SeedCount/4, SeedCount/2), popular enough to stay seeds.
	SeedCount int
	// HotShare, when set, is the probability that a tag of a standing query
	// is one of the happening seed tags instead of from the cold half of the
	// vocabulary. The stream's own Zipf will not do for a large population:
	// its head is so heavy that either everyone holds a tag that is in every
	// ranking (everyone matches every tick) or no one does, and which of the
	// two depends on the seed.
	HotShare float64
	// TagNames overrides the generated name of the given popularity ranks
	// (cosmetic: the serve scenario calls two of its hashtags athens and
	// air-traffic).
	TagNames map[int]string
	// FreshNames are the name stems of minted happening tags, cycled.
	FreshNames []string
}

// streamStart anchors every generated stream; the absolute value only has
// to be hour-aligned so window buckets and tick boundaries coincide.
var streamStart = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func (s *streamSpec) passSpan() time.Duration {
	return time.Duration(s.PassTicks) * s.TickEvery
}

// happening is one scripted ground-truth event of a concrete pass.
type happening struct {
	Pair  pairs.Key
	Start time.Time // boundary of the interval its burst falls in
	// Ordinal of the first tick that can see the burst: the tick at
	// Start+TickEvery, counted on the engine's grid (tick k fires at
	// streamStart + k·TickEvery).
	FirstTick int
}

// slot is one happening's place in the base pass: the interval holding
// its burst.
type slot struct {
	interval int
}

// generator produces one workload's stream, pass by pass, from a seed. The
// seed is consumed here and nowhere else: engines and servers only ever
// see the documents.
type generator struct {
	spec  streamSpec
	base  []stream.Item // one pass at offset zero, time-ordered
	hidx  []int32       // per base item: happening slot index, or -1
	slots []slot
	// hseeds are the popular members of happening pairs, used round-robin.
	hseeds []string
	// subRng and subZipf draw the subscriber population.
	subRng  *rand.Rand
	subZipf *rand.Zipf
	buf     []stream.Item
	ptrs    []*stream.Item
}

func (s *streamSpec) tagName(rank int) string {
	if n, ok := s.TagNames[rank]; ok {
		return n
	}
	return fmt.Sprintf("t%06d", rank)
}

func newGenerator(spec streamSpec, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Tags-1))
	g := &generator{spec: spec}

	// Happening slots: evenly spread over the pass, never in the last
	// interval (the burst must be seen by a tick of the same pass).
	lo, hi := spec.SeedCount/4, spec.SeedCount/2
	if hi <= lo {
		hi = lo + 1
	}
	for _, r := range rng.Perm(hi - lo) {
		if len(g.hseeds) < 8 {
			g.hseeds = append(g.hseeds, spec.tagName(lo+r))
		}
	}
	if len(g.spec.FreshNames) == 0 {
		g.spec.FreshNames = []string{"evt"}
	}
	for h := 0; h < spec.Happenings; h++ {
		iv := (2*h + 1) * spec.PassTicks / (2 * spec.Happenings)
		if iv >= spec.PassTicks-1 {
			iv = spec.PassTicks - 2
		}
		g.slots = append(g.slots, slot{interval: iv})
	}

	step := spec.TickEvery / time.Duration(spec.DocsPerTick)
	n := spec.PassTicks*spec.DocsPerTick + spec.Happenings*spec.HappeningDocs
	g.base = make([]stream.Item, 0, n)
	g.hidx = make([]int32, 0, n)
	var ranks []uint64
	for iv := 0; iv < spec.PassTicks; iv++ {
		at := streamStart.Add(time.Duration(iv) * spec.TickEvery)
		burst, left := -1, 0
		for h := range g.slots {
			if g.slots[h].interval == iv {
				burst, left = h, spec.HappeningDocs
			}
		}
		for j := 0; j < spec.DocsPerTick; j++ {
			nt := 1 + rng.Intn(2*spec.MeanTags-1)
			ranks = ranks[:0]
		draw:
			for len(ranks) < nt {
				r := zipf.Uint64()
				for _, seen := range ranks {
					if seen == r {
						continue draw // documents carry tag sets
					}
				}
				ranks = append(ranks, r)
			}
			tags := make([]string, nt)
			for i, r := range ranks {
				tags[i] = spec.tagName(int(r))
			}
			t := at.Add(time.Duration(j) * step)
			g.base = append(g.base, stream.Item{
				Time: t, DocID: fmt.Sprintf("d%07d", len(g.base)), Tags: tags, Source: "bench",
			})
			g.hidx = append(g.hidx, -1)
			// Burst documents interleave with the interval's first
			// background documents, half a step later each.
			if left > 0 {
				g.base = append(g.base, stream.Item{
					Time: t.Add(step / 2), DocID: fmt.Sprintf("h%07d", len(g.base)), Source: "bench",
				})
				g.hidx = append(g.hidx, int32(burst))
				left--
			}
		}
		if left > 0 {
			panic("bench: HappeningDocs exceeds DocsPerTick")
		}
	}
	g.subRng = rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	g.subZipf = rand.NewZipf(g.subRng, spec.ZipfS, 1, uint64(spec.Tags-1))
	g.buf = make([]stream.Item, len(g.base))
	g.ptrs = make([]*stream.Item, len(g.base))
	for i := range g.buf {
		g.ptrs[i] = &g.buf[i]
	}
	return g
}

// carries reports whether pass p has happenings.
func (g *generator) carries(p int) bool {
	every := max(1, g.spec.HappeningEvery)
	return p%every == every-1
}

// happeningTags names pass p's happening h.
func (g *generator) happeningTags(p, h int) []string {
	n := p/max(1, g.spec.HappeningEvery)*len(g.slots) + h
	stem := g.spec.FreshNames[n%len(g.spec.FreshNames)]
	return []string{g.hseeds[n%len(g.hseeds)], fmt.Sprintf("%s-%d", stem, n)}
}

// pass materialises pass p: the base pass shifted p pass spans later, with
// that pass's happening tags minted (or its burst documents left out, on a
// pass that carries no happening). The returned slices are reused by the
// next call.
func (g *generator) pass(p int) ([]*stream.Item, []happening) {
	shift := time.Duration(p) * g.spec.passSpan()
	var tags [][]string
	var hs []happening
	if g.carries(p) {
		for h := range g.slots {
			tg := g.happeningTags(p, h)
			tags = append(tags, tg)
			iv := p*g.spec.PassTicks + g.slots[h].interval
			hs = append(hs, happening{
				Pair:      pairs.MakeKey(tg[0], tg[1]),
				Start:     streamStart.Add(time.Duration(iv) * g.spec.TickEvery),
				FirstTick: iv + 1,
			})
		}
	}
	n := 0
	for i := range g.base {
		h := g.hidx[i]
		if h >= 0 && tags == nil {
			continue
		}
		g.buf[n] = g.base[i]
		g.buf[n].Time = g.buf[n].Time.Add(shift)
		if h >= 0 {
			g.buf[n].Tags = tags[h]
		}
		n++
	}
	return g.ptrs[:n], hs
}

// intervals cuts a materialised pass into its evaluation intervals: each
// returned run starts with the document sitting exactly on a tick boundary.
func (g *generator) intervals(items []*stream.Item) [][]*stream.Item {
	out := make([][]*stream.Item, 0, g.spec.PassTicks)
	lo := 0
	for i := 1; i <= len(items); i++ {
		if i == len(items) || items[i].Time.Sub(streamStart)%g.spec.TickEvery == 0 {
			out = append(out, items[lo:i])
			lo = i
		}
	}
	return out
}

// subscriberTags draws the predicate of one standing query: one to three
// tags. With HotShare set, each tag is with that probability one of the
// happening seed tags (hot: the ranking always holds their recent bursts)
// and otherwise from the cold half of the vocabulary, so the share of the
// population a tick matches is a property of the spec, not of the seed or of
// how far the run has got; without, tags follow the stream's own popularity.
func (g *generator) subscriberTags() []string {
	tags := make([]string, 1+g.subRng.Intn(3))
	for i := range tags {
		switch {
		case g.spec.HotShare == 0:
			tags[i] = g.spec.tagName(int(g.subZipf.Uint64()))
		case g.subRng.Float64() < g.spec.HotShare:
			tags[i] = g.hseeds[g.subRng.Intn(len(g.hseeds))]
		default:
			tags[i] = g.spec.tagName(g.spec.Tags/2 + g.subRng.Intn(g.spec.Tags/2))
		}
	}
	return tags
}
