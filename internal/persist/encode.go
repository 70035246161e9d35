// Package persist is the engine's durability layer: versioned binary
// snapshots of full engine state plus a JSONL write-ahead log of the ingest
// stream, with recovery = newest valid snapshot + WAL replay. The snapshot
// byte encoding is canonical — it serializes the engine's canonical state
// export (sorted tags, sorted pair keys rendered through a snapshot-local
// tag table, clocks advanced) — so two engines holding the same logical
// state produce identical snapshot bytes regardless of shard count, intern
// order, or arena slot layout. A golden-bytes test pins this per format
// version. The encoder streams a snapshot into its file through one reused
// chunk and a running checksum; the decoder validates a whole file into a
// core.EngineState whose pair keys are still tag-table indexes, and only
// then does materialize intern the table and fill the keys, walking them
// in the one order (forEachKey) the encoder wrote them in.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"slices"
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
	FormatVersion = 4
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// fingerprint is the semantic engine configuration embedded in every
// snapshot: the fields that change what state means. Throughput and wiring
// knobs — Shards, Tagger, Durability itself — are deliberately
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

// forEachKey visits every pair key in st in the order a snapshot writes
// them: tracked pairs, detector states, co-occurrence pairs, then ranking
// topics. The key table, the encoder's key positions and materialize all
// follow this one walk.
func forEachKey(st *core.EngineState, fn func(*pairs.Key)) {
	for i := range st.Pairs.Pairs {
		fn(&st.Pairs.Pairs[i].Key)
	}
	for i := range st.Det.Pairs {
		fn(&st.Det.Pairs[i].Key)
	}
	if st.Co != nil {
		for i := range st.Co.Pairs {
			fn(&st.Co.Pairs[i].Key)
		}
	}
	for i := range st.Last.Topics {
		fn(&st.Last.Topics[i].Pair)
	}
}

// keyTable is a snapshot's tag table — every tag referenced through a
// pairs.Key anywhere in the state, sorted and deduplicated — and each key's
// two table positions in forEachKey order. Keys are serialized as indexes
// into the table rather than interned IDs, which is what makes snapshot
// bytes independent of intern order (and therefore identical across runs
// and shard counts).
type keyTable struct {
	tags []string
	pos  []uint32 // two per key, in writing order
	next int
}

// tagTableOf builds st's key table with one intern lookup per distinct tag.
func tagTableOf(st *core.EngineState) *keyTable {
	n := len(st.Pairs.Pairs) + len(st.Det.Pairs) + len(st.Last.Topics)
	if st.Co != nil {
		n += len(st.Co.Pairs)
	}
	keys := make([]pairs.Key, 0, n)
	forEachKey(st, func(k *pairs.Key) { keys = append(keys, *k) })
	tags, pos := pairs.TagTable(keys)
	return &keyTable{tags: tags, pos: pos}
}

// appendKey writes the next key's two table positions.
func appendKey(b []byte, kt *keyTable) []byte {
	b = appendU32(b, kt.pos[kt.next])
	b = appendU32(b, kt.pos[kt.next+1])
	kt.next += 2
	return b
}

// snapChunk is how many encoded bytes the encoder gathers before it folds
// them into the checksum and writes them out; the chunk is reused, so no
// buffer grows with the snapshot.
const snapChunk = 64 << 10

// chunkWriter is the encoder's output: a running CRC-64 over every byte
// written, and the first write error, after which nothing more is written.
type chunkWriter struct {
	w   io.Writer
	crc uint64
	err error
}

// spill writes b out once it holds a full chunk, or always when last, and
// returns it emptied. The last call appends the checksum of everything
// written before it.
func (c *chunkWriter) spill(b []byte, last bool) []byte {
	if len(b) < snapChunk && !last {
		return b
	}
	c.crc = crc64.Update(c.crc, crcTable, b)
	if last {
		b = appendU64(b, c.crc)
	}
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
	return b[:0]
}

// appendPairs encodes a pair tracker's state: its clock, then every pair's
// key and window column in the export's canonical order.
func appendPairs(b []byte, st *pairs.ShardedTrackerState, kt *keyTable, cw *chunkWriter) []byte {
	b = appendI64(b, st.NowNano)
	b = appendU32(b, uint32(len(st.Pairs)))
	for _, p := range st.Pairs {
		b = appendKey(b, kt)
		b = appendSlot(b, p.Window)
		b = cw.spill(b, false)
	}
	return b
}

// encodeSnapshot streams st (an engine's canonical state export) to w under
// cfg's semantic fingerprint: magic, format version, fingerprint, tag
// table, section per subsystem, trailing CRC64-ECMA over everything before
// it. It writes chunk by chunk and returns the first write error.
func encodeSnapshot(w io.Writer, cfg core.Config, st *core.EngineState) error {
	kt := tagTableOf(st)
	cw := &chunkWriter{w: w}
	b := make([]byte, 0, snapChunk+4<<10)
	b = append(b, snapMagic...)
	b = appendU32(b, FormatVersion)
	b = appendFingerprint(b, fingerprintOf(cfg))

	b = appendU32(b, uint32(len(kt.tags)))
	for _, t := range kt.tags {
		b = appendStr(b, t)
		b = cw.spill(b, false)
	}

	// Engine scalars.
	b = appendI64(b, st.Docs)
	b = appendI64(b, st.LastSeenNano)
	b = appendI64(b, st.NextTickNano)
	b = appendBool(b, st.NextTickSet)
	b = appendI64(b, st.LastTickNano)
	b = appendBool(b, st.LastTickSet)

	// Tag statistics.
	b = appendSlot(b, st.Tags.Docs)
	b = appendI64(b, st.Tags.NowNano)
	b = appendBool(b, st.Tags.NowSet)
	b = appendU32(b, uint32(len(st.Tags.Tags)))
	for _, ts := range st.Tags.Tags {
		b = appendStr(b, ts.Tag)
		b = appendSlot(b, ts.Window)
		b = cw.spill(b, false)
	}

	// Pair windows.
	b = appendPairs(b, &st.Pairs, kt, cw)

	// Detector.
	b = appendI64(b, st.Det.CurTickNano)
	b = appendI64(b, st.Det.TickCount)
	b = appendU32(b, uint32(len(st.Det.Pairs)))
	for _, p := range st.Det.Pairs {
		b = appendKey(b, kt)
		b = appendF64(b, p.LogScore)
		b = appendI64(b, p.SeenNano)
		b = appendPredict(b, p.Pred)
		b = cw.spill(b, false)
	}

	// Co-occurrence pairs (DistributionMode only).
	b = appendBool(b, st.Co != nil)
	if st.Co != nil {
		b = appendPairs(b, st.Co, kt, cw)
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
		b = appendKey(b, kt)
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

	cw.spill(b, true)
	return cw.err
}

// ---- strict, fuzz-safe decoder ----

// errCorrupt wraps every structural decode failure so callers can
// distinguish corruption (skip to an older snapshot) from environment
// errors.
var errCorrupt = errors.New("persist: corrupt snapshot")

// errConfigMismatch rejects a snapshot whose fingerprint is not the
// restoring engine's, before any of its body is decoded.
var errConfigMismatch = errors.New("persist: snapshot was written under a different engine configuration (bump or match the config, or move the data directory aside)")

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
	// vals is the chunk slot columns and predictor rings are carved from.
	// It grows geometrically as sections decode, never pre-sized from a
	// count, so memory follows what was actually decoded; a carved slice
	// keeps the chunk it came from when a new one replaces it.
	vals []float64
}

// floats carves n zeroed values out of the reader's chunk.
func (r *reader) floats(n int) []float64 {
	if len(r.vals)+n > cap(r.vals) {
		r.vals = make([]float64, 0, max(n, 2*cap(r.vals), 1024))
	}
	i := len(r.vals)
	r.vals = r.vals[:i+n]
	return r.vals[i : i+n : i+n]
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

func (r *reader) bytes() []byte { return r.take(int(r.u32())) }

func (r *reader) str() string { return string(r.bytes()) }

// strs reads n length-prefixed strings as slices of one copy of their
// bytes; nil if the input ends first.
func (r *reader) strs(n int) []string {
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		r.bytes()
	}
	if r.err != nil {
		return nil
	}
	blob := string(r.b[start:r.off])
	out := make([]string, n)
	for i, off := 0, 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint32(r.b[start+off:]))
		out[i] = blob[off+4 : off+4+l]
		off += 4 + l
	}
	return out
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
	s := window.SlotState{Vals: r.floats(n)}
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
	s.Ring = r.floats(n)
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

// pairs decodes what appendPairs encodes, recording each pair's key in
// d.keys and leaving the state's Key zero.
func (r *reader) pairs(d *decodedSnap, nbuckets int) pairs.ShardedTrackerState {
	st := pairs.ShardedTrackerState{NowNano: r.i64()}
	n := r.count(8 + 25)
	st.Pairs = make([]pairs.PairState, 0, n)
	d.keys = slices.Grow(d.keys, n)
	for i := 0; i < n && r.err == nil; i++ {
		d.keys = append(d.keys, r.key(len(d.table)))
		st.Pairs = append(st.Pairs, pairs.PairState{Window: r.slot(nbuckets)})
	}
	return st
}

// decodedSnap is a fully validated snapshot: st holds every section with
// its pair keys left zero, and keys holds those keys as tag-table indexes
// in forEachKey order. No interning and no engine mutation has happened;
// materialize resolves the keys against the live intern table.
type decodedSnap struct {
	table []string
	keys  []decKey
	st    core.EngineState
}

// tag returns b as a string, shared with the tag table when the table
// holds it, so most tag statistics cost no copy of their own.
func (d *decodedSnap) tag(b []byte) string {
	i := sort.Search(len(d.table), func(i int) bool { return d.table[i] >= string(b) })
	if i < len(d.table) && d.table[i] == string(b) {
		return d.table[i]
	}
	return string(b)
}

// decodeSnapshot parses and validates data for an engine whose fingerprint
// is want. A snapshot embedding any other fingerprint is refused with
// errConfigMismatch before its body is read, so its window geometry can
// size no allocation. Arbitrary input returns an error — never a panic —
// and a nil error guarantees structural validity: checksum verified, all
// counts bounded, tag table sorted and unique, key indexes in range,
// window geometry matching want.
func decodeSnapshot(data []byte, want fingerprint) (*decodedSnap, error) {
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

	fp := r.fingerprint()
	if r.err == nil && fp != want {
		return nil, errConfigMismatch
	}
	d := &decodedSnap{}
	st := &d.st
	nb := int(fp.WindowBuckets)
	if r.err == nil && (nb <= 0 || nb > 1<<20) {
		r.fail("implausible window bucket count %d", nb)
	}

	d.table = r.strs(r.count(4))
	for i, t := range d.table {
		if t == "" {
			r.fail("empty tag in table")
			break
		}
		if i > 0 && d.table[i-1] >= t {
			r.fail("tag table not sorted/unique at %d", i)
			break
		}
	}

	st.Docs = r.i64()
	st.LastSeenNano = r.i64()
	st.NextTickNano = r.i64()
	st.NextTickSet = r.boolean()
	st.LastTickNano = r.i64()
	st.LastTickSet = r.boolean()

	st.Tags.Docs = r.slot(nb)
	st.Tags.NowNano = r.i64()
	st.Tags.NowSet = r.boolean()
	nt := r.count(4 + 25)
	st.Tags.Tags = make([]tagstats.TagState, 0, min(nt, 1<<16))
	for i := 0; i < nt && r.err == nil; i++ {
		var ts tagstats.TagState
		ts.Tag = d.tag(r.bytes())
		ts.Window = r.slot(nb)
		if r.err != nil {
			break
		}
		if ts.Tag == "" {
			r.fail("empty tag in tag statistics")
			break
		}
		if i > 0 && st.Tags.Tags[i-1].Tag >= ts.Tag {
			r.fail("tag statistics not sorted/unique at %d", i)
			break
		}
		st.Tags.Tags = append(st.Tags.Tags, ts)
	}

	st.Pairs = r.pairs(d, nb)

	st.Det.CurTickNano = r.i64()
	st.Det.TickCount = r.i64()
	nd := r.count(8 + 8 + 8 + 37)
	st.Det.Pairs = make([]shift.PairDetState, 0, nd)
	d.keys = slices.Grow(d.keys, nd)
	for i := 0; i < nd && r.err == nil; i++ {
		d.keys = append(d.keys, r.key(len(d.table)))
		ls := r.f64()
		if math.IsNaN(ls) || math.IsInf(ls, 1) {
			r.fail("detector log-score %v at %d", ls, i)
			break
		}
		st.Det.Pairs = append(st.Det.Pairs, shift.PairDetState{
			LogScore: ls,
			SeenNano: r.i64(),
			Pred:     r.predictState(),
		})
	}

	if r.boolean() {
		co := r.pairs(d, nb)
		st.Co = &co
	}

	ns := r.count(4)
	for i := 0; i < ns && r.err == nil; i++ {
		st.Seeds = append(st.Seeds, r.str())
	}

	atNano := r.i64()
	if r.boolean() {
		st.Last.At = nanoTime(atNano)
	}
	nls := r.count(4)
	for i := 0; i < nls && r.err == nil; i++ {
		st.Last.Seeds = append(st.Last.Seeds, r.str())
	}
	ntp := r.count(8 + 40 + 10)
	for i := 0; i < ntp && r.err == nil; i++ {
		d.keys = append(d.keys, r.key(len(d.table)))
		t := shift.Topic{
			Score:        r.f64(),
			Correlation:  r.f64(),
			Predicted:    r.f64(),
			Error:        r.f64(),
			Cooccurrence: r.f64(),
		}
		if tAt := r.i64(); r.boolean() {
			t.At = nanoTime(tAt)
		}
		t.Warmup = r.boolean()
		st.Last.Topics = append(st.Last.Topics, t)
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, corruptf("%d trailing bytes after snapshot body", len(body)-r.off)
	}
	return d, nil
}
