// Package persist is the engine's durability layer: versioned binary
// snapshots of full engine state plus a JSONL write-ahead log of the ingest
// stream, with recovery = newest valid snapshot + WAL replay. The snapshot
// byte encoding is canonical — it serializes the engine's canonical state
// export (sorted tags, sorted pair keys rendered through a snapshot-local
// tag table, clocks advanced) — so two engines holding the same logical
// state produce identical snapshot bytes regardless of shard count, intern
// order, or arena slot layout. A golden-bytes test pins this per format
// version.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"sort"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/tagstats"
	"enblogue/internal/window"
)

// snapMagic opens every snapshot file; FormatVersion follows it. Bump
// FormatVersion on ANY byte-layout change and regenerate the golden hash
// (see TestSnapshotGoldenBytes for the procedure).
const (
	snapMagic     = "ENBSNAP1"
	FormatVersion = 1
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// fingerprint is the semantic engine configuration embedded in every
// snapshot: the fields that change what state means. Throughput and wiring
// knobs — Shards, Ingest*, Tagger, Durability itself — are deliberately
// excluded: state snapshotted at one shard count restores at any other
// (rankings are shard-count-independent), and the Tagger only matters at
// ingest time, where WAL replay re-runs it on the raw logged items.
//
// The tiered sketch tail (Config.TailSketch) is likewise excluded, from
// both the fingerprint and the snapshot payload — a deliberate cold-start-
// empty decision. The tail holds only upper-bound estimates for already-
// evicted pairs; every value the scorer reads lives in the exact tier,
// which round-trips bit-identically. Restoring an empty tail costs at most
// a delayed re-promotion of a tail pair that must re-earn its estimate,
// and in exchange snapshots stay byte-identical whether or not the tier is
// enabled, and pre-tier snapshots restore into tier-enabled engines (and
// vice versa) with no format change.
type fingerprint struct {
	WindowBuckets    int64
	WindowResolution int64
	TickEvery        int64
	SeedCount        int64
	SeedCriterion    int64
	SeedMinCount     float64
	SeedWarmupDocs   int64
	MaxPairs         int64
	Measure          int64
	DistributionMode bool
	Predictor        int64
	PredWindow       int64
	PredAlpha        float64
	PredBeta         float64
	PredPeriod       int64
	PredSeasons      int64
	HalfLife         int64
	MinCooccurrence  float64
	UpOnly           bool
	TopK             int64
	UseEntities      bool
}

// fingerprintOf derives the semantic fingerprint from an effective
// (normalized) engine configuration.
func fingerprintOf(c core.Config) fingerprint {
	return fingerprint{
		WindowBuckets:    int64(c.WindowBuckets),
		WindowResolution: int64(c.WindowResolution),
		TickEvery:        int64(c.TickEvery),
		SeedCount:        int64(c.SeedCount),
		SeedCriterion:    int64(c.SeedCriterion),
		SeedMinCount:     c.SeedMinCount,
		SeedWarmupDocs:   int64(c.SeedWarmupDocs),
		MaxPairs:         int64(c.MaxPairs),
		Measure:          int64(c.Measure),
		DistributionMode: c.DistributionMode,
		Predictor:        int64(c.Predictor),
		PredWindow:       int64(c.PredictorConfig.Window),
		PredAlpha:        c.PredictorConfig.Alpha,
		PredBeta:         c.PredictorConfig.Beta,
		PredPeriod:       int64(c.PredictorConfig.Period),
		PredSeasons:      int64(c.PredictorConfig.Seasons),
		HalfLife:         int64(c.HalfLife),
		MinCooccurrence:  c.MinCooccurrence,
		UpOnly:           c.UpOnly,
		TopK:             int64(c.TopK),
		UseEntities:      c.UseEntities,
	}
}

// ---- append-style encoder ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendFingerprint(b []byte, fp fingerprint) []byte {
	b = appendI64(b, fp.WindowBuckets)
	b = appendI64(b, fp.WindowResolution)
	b = appendI64(b, fp.TickEvery)
	b = appendI64(b, fp.SeedCount)
	b = appendI64(b, fp.SeedCriterion)
	b = appendF64(b, fp.SeedMinCount)
	b = appendI64(b, fp.SeedWarmupDocs)
	b = appendI64(b, fp.MaxPairs)
	b = appendI64(b, fp.Measure)
	b = appendBool(b, fp.DistributionMode)
	b = appendI64(b, fp.Predictor)
	b = appendI64(b, fp.PredWindow)
	b = appendF64(b, fp.PredAlpha)
	b = appendF64(b, fp.PredBeta)
	b = appendI64(b, fp.PredPeriod)
	b = appendI64(b, fp.PredSeasons)
	b = appendI64(b, fp.HalfLife)
	b = appendF64(b, fp.MinCooccurrence)
	b = appendBool(b, fp.UpOnly)
	b = appendI64(b, fp.TopK)
	b = appendBool(b, fp.UseEntities)
	return b
}

func appendTimeBuckets(b []byte, s window.TimeBucketsState) []byte {
	b = appendU32(b, uint32(len(s.Buckets)))
	for _, v := range s.Buckets {
		b = appendF64(b, v)
	}
	for _, v := range s.Counts {
		b = appendI64(b, v)
	}
	b = appendI64(b, s.Head)
	b = appendBool(b, s.HeadSet)
	b = appendF64(b, s.Total)
	b = appendI64(b, s.N)
	return b
}

// appendSlot encodes a slot column sparsely: bucket count, then only the
// non-zero (position, value) entries — pair and tag windows are mostly
// zeros.
func appendSlot(b []byte, s window.SlotState) []byte {
	b = appendU32(b, uint32(len(s.Vals)))
	nnz := 0
	for _, v := range s.Vals {
		if v != 0 {
			nnz++
		}
	}
	b = appendU32(b, uint32(nnz))
	for i, v := range s.Vals {
		if v != 0 {
			b = appendU32(b, uint32(i))
			b = appendF64(b, v)
		}
	}
	b = appendI64(b, s.Head)
	b = appendBool(b, s.HeadSet)
	b = appendF64(b, s.Total)
	return b
}

func appendPredict(b []byte, s predict.State) []byte {
	b = appendU32(b, uint32(len(s.Ring)))
	for _, v := range s.Ring {
		b = appendF64(b, v)
	}
	b = appendF64(b, s.F1)
	b = appendF64(b, s.F2)
	b = appendF64(b, s.F3)
	b = appendI64(b, int64(s.N))
	b = appendBool(b, s.Seen)
	return b
}

// tagTableOf collects every tag referenced through a pairs.Key anywhere in
// the state — pair windows, detector entries, ranking topics — sorted and
// deduplicated. Keys are serialized as indexes into this table rather than
// interned IDs, which is what makes snapshot bytes independent of intern
// order (and therefore identical across runs and shard counts).
func tagTableOf(st *core.EngineState) ([]string, map[string]uint32) {
	seen := make(map[string]uint32)
	add := func(k pairs.Key) {
		t1, t2 := k.Tags()
		seen[t1] = 0
		seen[t2] = 0
	}
	for _, p := range st.Pairs.Pairs {
		add(p.Key)
	}
	for _, p := range st.Det.Pairs {
		add(p.Key)
	}
	for _, t := range st.Last.Topics {
		add(t.Pair)
	}
	table := make([]string, 0, len(seen))
	for t := range seen { //enblogue:unordered collects for the explicit sort below
		table = append(table, t)
	}
	sort.Strings(table)
	for i, t := range table {
		seen[t] = uint32(i)
	}
	return table, seen
}

func appendKey(b []byte, k pairs.Key, idx map[string]uint32) []byte {
	t1, t2 := k.Tags()
	b = appendU32(b, idx[t1])
	return appendU32(b, idx[t2])
}

// encodeSnapshot serializes st (an engine's canonical state export) under
// cfg's semantic fingerprint: magic, format version, fingerprint, tag
// table, section per subsystem, trailing CRC64-ECMA over everything before
// it.
func encodeSnapshot(cfg core.Config, st *core.EngineState) []byte {
	b := make([]byte, 0, 4096)
	b = append(b, snapMagic...)
	b = appendU32(b, FormatVersion)
	b = appendFingerprint(b, fingerprintOf(cfg))

	table, idx := tagTableOf(st)
	b = appendU32(b, uint32(len(table)))
	for _, t := range table {
		b = appendStr(b, t)
	}

	// Engine scalars.
	b = appendI64(b, st.Docs)
	b = appendI64(b, st.LastSeenNano)
	b = appendI64(b, st.NextTickNano)
	b = appendBool(b, st.NextTickSet)
	b = appendI64(b, st.LastTickNano)
	b = appendBool(b, st.LastTickSet)

	// Tag statistics.
	b = appendTimeBuckets(b, st.Tags.Docs)
	b = appendI64(b, st.Tags.NowNano)
	b = appendBool(b, st.Tags.NowSet)
	b = appendI64(b, st.Tags.SinceGC)
	b = appendU32(b, uint32(len(st.Tags.Tags)))
	for _, ts := range st.Tags.Tags {
		b = appendStr(b, ts.Tag)
		b = appendSlot(b, ts.Window)
	}

	// Pair windows.
	b = appendI64(b, st.Pairs.NowNano)
	b = appendI64(b, st.Pairs.SinceGC)
	b = appendU32(b, uint32(len(st.Pairs.Pairs)))
	for _, p := range st.Pairs.Pairs {
		b = appendKey(b, p.Key, idx)
		b = appendSlot(b, p.Window)
	}

	// Detector.
	b = appendI64(b, st.Det.CurTickNano)
	b = appendI64(b, st.Det.TickCount)
	b = appendU32(b, uint32(len(st.Det.Pairs)))
	for _, p := range st.Det.Pairs {
		b = appendKey(b, p.Key, idx)
		b = appendF64(b, p.Decay.Value)
		b = appendI64(b, p.Decay.AtNano)
		b = appendBool(b, p.Decay.Set)
		b = appendI64(b, p.SeenNano)
		b = appendPredict(b, p.Pred)
	}

	// Co-tag distributions (DistributionMode only).
	b = appendBool(b, st.Dist != nil)
	if st.Dist != nil {
		b = appendI64(b, st.Dist.NowNano)
		b = appendBool(b, st.Dist.NowSet)
		b = appendI64(b, st.Dist.SinceGC)
		b = appendU32(b, uint32(len(st.Dist.Tags)))
		for _, ts := range st.Dist.Tags {
			b = appendStr(b, ts.Tag)
			b = appendU32(b, uint32(len(ts.Co)))
			for _, cs := range ts.Co {
				b = appendStr(b, cs.Co)
				b = appendTimeBuckets(b, cs.W)
			}
		}
	}

	// Seeds.
	b = appendU32(b, uint32(len(st.Seeds)))
	for _, s := range st.Seeds {
		b = appendStr(b, s)
	}

	// Last published ranking.
	atNano := int64(0)
	if !st.Last.At.IsZero() {
		atNano = st.Last.At.UnixNano()
	}
	b = appendI64(b, atNano)
	b = appendBool(b, !st.Last.At.IsZero())
	b = appendU32(b, uint32(len(st.Last.Seeds)))
	for _, s := range st.Last.Seeds {
		b = appendStr(b, s)
	}
	b = appendU32(b, uint32(len(st.Last.Topics)))
	for _, t := range st.Last.Topics {
		b = appendKey(b, t.Pair, idx)
		b = appendF64(b, t.Score)
		b = appendF64(b, t.Correlation)
		b = appendF64(b, t.Predicted)
		b = appendF64(b, t.Error)
		b = appendF64(b, t.Cooccurrence)
		tAt := int64(0)
		if !t.At.IsZero() {
			tAt = t.At.UnixNano()
		}
		b = appendI64(b, tAt)
		b = appendBool(b, !t.At.IsZero())
		b = appendBool(b, t.Warmup)
	}

	return appendU64(b, crc64.Checksum(b, crcTable))
}

// ---- strict, fuzz-safe decoder ----

// errCorrupt wraps every structural decode failure so callers can
// distinguish corruption (skip to an older snapshot) from environment
// errors.
var errCorrupt = errors.New("persist: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// reader is a bounds-checked cursor over the snapshot payload. Every length
// and count is validated against the bytes actually remaining before any
// allocation sized by it, so arbitrary input can fail but never panic or
// balloon memory.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated at offset %d (need %d of %d)", r.off, n, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i64() int64    { return int64(r.u64()) }
func (r *reader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) str() string {
	n := int(r.u32())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// count reads an element count and validates it against the remaining bytes
// given a minimum encoded size per element.
func (r *reader) count(minSize int) int {
	n := int(r.u32())
	if r.err == nil && n*minSize > len(r.b)-r.off {
		r.fail("count %d exceeds remaining input at offset %d", n, r.off)
		return 0
	}
	return n
}

func (r *reader) fingerprint() fingerprint {
	var fp fingerprint
	fp.WindowBuckets = r.i64()
	fp.WindowResolution = r.i64()
	fp.TickEvery = r.i64()
	fp.SeedCount = r.i64()
	fp.SeedCriterion = r.i64()
	fp.SeedMinCount = r.f64()
	fp.SeedWarmupDocs = r.i64()
	fp.MaxPairs = r.i64()
	fp.Measure = r.i64()
	fp.DistributionMode = r.boolean()
	fp.Predictor = r.i64()
	fp.PredWindow = r.i64()
	fp.PredAlpha = r.f64()
	fp.PredBeta = r.f64()
	fp.PredPeriod = r.i64()
	fp.PredSeasons = r.i64()
	fp.HalfLife = r.i64()
	fp.MinCooccurrence = r.f64()
	fp.UpOnly = r.boolean()
	fp.TopK = r.i64()
	fp.UseEntities = r.boolean()
	return fp
}

// timeBuckets decodes a dense window; nbuckets must match the fingerprint's
// window geometry.
func (r *reader) timeBuckets(nbuckets int) window.TimeBucketsState {
	n := r.count(8)
	if r.err == nil && n != nbuckets {
		r.fail("window with %d buckets, config says %d", n, nbuckets)
	}
	if r.err != nil {
		return window.TimeBucketsState{}
	}
	s := window.TimeBucketsState{
		Buckets: make([]float64, n),
		Counts:  make([]int64, n),
	}
	for i := range s.Buckets {
		s.Buckets[i] = r.f64()
	}
	for i := range s.Counts {
		s.Counts[i] = r.i64()
	}
	s.Head = r.i64()
	s.HeadSet = r.boolean()
	s.Total = r.f64()
	s.N = r.i64()
	return s
}

func (r *reader) slot(nbuckets int) window.SlotState {
	n := int(r.u32())
	if r.err == nil && n != nbuckets {
		r.fail("slot with %d buckets, config says %d", n, nbuckets)
	}
	nnz := r.count(12)
	if r.err == nil && nnz > n {
		r.fail("slot with %d non-zero entries in %d buckets", nnz, n)
	}
	if r.err != nil {
		return window.SlotState{}
	}
	s := window.SlotState{Vals: make([]float64, n)}
	prev := -1
	for i := 0; i < nnz; i++ {
		pos := int(r.u32())
		v := r.f64()
		if r.err != nil {
			return window.SlotState{}
		}
		if pos >= n || pos <= prev {
			r.fail("slot entry position %d out of order or range", pos)
			return window.SlotState{}
		}
		prev = pos
		s.Vals[pos] = v
	}
	s.Head = r.i64()
	s.HeadSet = r.boolean()
	s.Total = r.f64()
	return s
}

func (r *reader) predictState() predict.State {
	n := r.count(8)
	var s predict.State
	if r.err != nil {
		return s
	}
	s.Ring = make([]float64, n)
	for i := range s.Ring {
		s.Ring[i] = r.f64()
	}
	s.F1 = r.f64()
	s.F2 = r.f64()
	s.F3 = r.f64()
	s.N = int(r.i64())
	s.Seen = r.boolean()
	return s
}

// decKey is a pair key as two tag-table indexes (in rendered tag order).
type decKey struct{ a, b uint32 }

func (r *reader) key(ntags int) decKey {
	k := decKey{a: r.u32(), b: r.u32()}
	if r.err == nil {
		if int(k.a) >= ntags || int(k.b) >= ntags {
			r.fail("pair key index out of table range")
		} else if k.a == k.b {
			r.fail("pair key with identical tags")
		}
	}
	return k
}

// decodedSnap is a fully validated snapshot, still in table-index form: no
// interning and no engine mutation has happened. materialize resolves it
// into a core.EngineState against a live intern table.
type decodedSnap struct {
	fp    fingerprint
	table []string

	docs         int64
	lastSeenNano int64
	nextTickNano int64
	nextTickSet  bool
	lastTickNano int64
	lastTickSet  bool

	tags tagstats.TrackerState

	pairsNowNano int64
	pairsSinceGC int64
	pairKeys     []decKey
	pairWindows  []window.SlotState

	detCurTickNano int64
	detTickCount   int64
	detKeys        []decKey
	detDecay       []window.DecayState
	detSeen        []int64
	detPred        []predict.State

	dist *pairs.DistState

	seeds []string

	lastAtNano int64
	lastAtSet  bool
	lastSeeds  []string
	topicKeys  []decKey
	topics     []shift.Topic // Pair left zero; filled by materialize

	epoch int64 // alias of docs: the WAL position this snapshot covers
}

// decodeSnapshot parses and validates data. Arbitrary input returns an
// error — never a panic — and a nil error guarantees structural validity:
// checksum verified, all counts bounded, tag table sorted and unique, key
// indexes in range, window geometry matching the embedded fingerprint.
func decodeSnapshot(data []byte) (*decodedSnap, error) {
	if len(data) < len(snapMagic)+4+8 {
		return nil, corruptf("short file (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, corruptf("bad magic")
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return nil, corruptf("checksum mismatch (stored %016x, computed %016x)", sum, got)
	}
	r := &reader{b: body, off: len(snapMagic)}
	if v := r.u32(); v != FormatVersion {
		return nil, corruptf("format version %d, this build reads %d", v, FormatVersion)
	}

	d := &decodedSnap{}
	d.fp = r.fingerprint()
	nb := int(d.fp.WindowBuckets)
	if r.err == nil && (nb <= 0 || nb > 1<<20) {
		r.fail("implausible window bucket count %d", nb)
	}

	ntags := r.count(4)
	d.table = make([]string, 0, min(ntags, 1<<16))
	for i := 0; i < ntags && r.err == nil; i++ {
		t := r.str()
		if r.err != nil {
			break
		}
		if t == "" {
			r.fail("empty tag in table")
			break
		}
		if i > 0 && d.table[i-1] >= t {
			r.fail("tag table not sorted/unique at %d", i)
			break
		}
		d.table = append(d.table, t)
	}

	d.docs = r.i64()
	d.lastSeenNano = r.i64()
	d.nextTickNano = r.i64()
	d.nextTickSet = r.boolean()
	d.lastTickNano = r.i64()
	d.lastTickSet = r.boolean()

	d.tags.Docs = r.timeBuckets(nb)
	d.tags.NowNano = r.i64()
	d.tags.NowSet = r.boolean()
	d.tags.SinceGC = r.i64()
	nt := r.count(4 + 25)
	d.tags.Tags = make([]tagstats.TagState, 0, min(nt, 1<<16))
	for i := 0; i < nt && r.err == nil; i++ {
		var ts tagstats.TagState
		ts.Tag = r.str()
		ts.Window = r.slot(nb)
		if r.err != nil {
			break
		}
		if ts.Tag == "" {
			r.fail("empty tag in tag statistics")
			break
		}
		if i > 0 && d.tags.Tags[i-1].Tag >= ts.Tag {
			r.fail("tag statistics not sorted/unique at %d", i)
			break
		}
		d.tags.Tags = append(d.tags.Tags, ts)
	}

	d.pairsNowNano = r.i64()
	d.pairsSinceGC = r.i64()
	np := r.count(8 + 25)
	for i := 0; i < np && r.err == nil; i++ {
		k := r.key(len(d.table))
		w := r.slot(nb)
		if r.err != nil {
			break
		}
		d.pairKeys = append(d.pairKeys, k)
		d.pairWindows = append(d.pairWindows, w)
	}

	d.detCurTickNano = r.i64()
	d.detTickCount = r.i64()
	nd := r.count(8 + 17 + 8 + 37)
	for i := 0; i < nd && r.err == nil; i++ {
		k := r.key(len(d.table))
		dec := window.DecayState{Value: r.f64(), AtNano: r.i64(), Set: r.boolean()}
		seen := r.i64()
		pred := r.predictState()
		if r.err != nil {
			break
		}
		d.detKeys = append(d.detKeys, k)
		d.detDecay = append(d.detDecay, dec)
		d.detSeen = append(d.detSeen, seen)
		d.detPred = append(d.detPred, pred)
	}

	if r.boolean() {
		dist := &pairs.DistState{}
		dist.NowNano = r.i64()
		dist.NowSet = r.boolean()
		dist.SinceGC = r.i64()
		ndt := r.count(8)
		for i := 0; i < ndt && r.err == nil; i++ {
			var ts pairs.DistTagState
			ts.Tag = r.str()
			if r.err == nil && ts.Tag == "" {
				r.fail("empty tag in distribution state")
				break
			}
			nco := r.count(4)
			for j := 0; j < nco && r.err == nil; j++ {
				var cs pairs.DistCoState
				cs.Co = r.str()
				cs.W = r.timeBuckets(nb)
				if r.err != nil {
					break
				}
				if cs.Co == "" || (j > 0 && ts.Co[j-1].Co >= cs.Co) {
					r.fail("distribution co-tags not sorted/unique under %q", ts.Tag)
					break
				}
				ts.Co = append(ts.Co, cs)
			}
			if r.err != nil {
				break
			}
			if i > 0 && dist.Tags[i-1].Tag >= ts.Tag {
				r.fail("distribution tags not sorted/unique at %d", i)
				break
			}
			dist.Tags = append(dist.Tags, ts)
		}
		d.dist = dist
	}

	ns := r.count(4)
	for i := 0; i < ns && r.err == nil; i++ {
		d.seeds = append(d.seeds, r.str())
	}

	d.lastAtNano = r.i64()
	d.lastAtSet = r.boolean()
	nls := r.count(4)
	for i := 0; i < nls && r.err == nil; i++ {
		d.lastSeeds = append(d.lastSeeds, r.str())
	}
	ntp := r.count(8 + 40 + 10)
	for i := 0; i < ntp && r.err == nil; i++ {
		k := r.key(len(d.table))
		var t shift.Topic
		t.Score = r.f64()
		t.Correlation = r.f64()
		t.Predicted = r.f64()
		t.Error = r.f64()
		t.Cooccurrence = r.f64()
		atNano := r.i64()
		atSet := r.boolean()
		t.Warmup = r.boolean()
		if r.err != nil {
			break
		}
		if atSet {
			t.At = nanoTime(atNano)
		}
		d.topicKeys = append(d.topicKeys, k)
		d.topics = append(d.topics, t)
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, corruptf("%d trailing bytes after snapshot body", len(body)-r.off)
	}
	d.epoch = d.docs
	return d, nil
}
