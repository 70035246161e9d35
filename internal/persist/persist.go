package persist

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/stream"
)

// File layout inside a data directory (one directory per engine; the Hub
// gives each tenant a subdirectory):
//
//	snap-<epoch>.snap    full engine snapshot taken at document count <epoch>
//	wal-<epoch>.jsonl    WAL segment holding the inputs logged after that
//	                     snapshot: documents seq > <epoch>, forced ticks
//	                     seq >= <epoch>
//
// Epochs are zero-padded to 20 digits so lexicographic name order is epoch
// order. WAL segments rotate exactly at snapshot epochs (under the engine
// lock), so segment boundaries and snapshot coverage always agree:
// recovery restores the newest valid snapshot and replays every record
// after it, in file order, asserting contiguity.

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	walPrefix  = "wal-"
	walSuffix  = ".jsonl"
)

func snapName(epoch int64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, epoch, snapSuffix) }
func walName(epoch int64) string  { return fmt.Sprintf("%s%020d%s", walPrefix, epoch, walSuffix) }

// parseEpoch extracts the epoch from a snapshot or WAL file name; ok is
// false for names that are not ours.
func parseEpoch(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 20 {
		return 0, false
	}
	n, err := strconv.ParseInt(mid, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// walFile is the slice of *os.File the Store needs; the crash-injection
// harness substitutes fault-point implementations through the create seam.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Store is the persistence layer attached to one engine: it records every
// engine input — documents and forced ticks — to the WAL (as the engine's
// WALRecorder) and writes
// snapshots on demand and on a background ticker (as its Durability
// handle). A Store is built by Attach during core.New, after recovery.
type Store struct {
	dir string
	cfg core.DurabilityConfig // normalized: defaults applied
	eng *core.Engine
	// engCfg is the engine's effective configuration, the source of the
	// snapshot fingerprint.
	engCfg core.Config

	// create and rename are the filesystem seams the crash-injection
	// harness overrides; production uses the os implementations.
	create func(path string) (walFile, error)
	rename func(oldpath, newpath string) error

	// snapMu serialises whole snapshot operations — state export, encode,
	// file write — against each other (ticker vs. explicit Snapshot). It is
	// taken before any engine lock and held across the export, hence the
	// lowest class in the engine's lock order.
	//
	//enblogue:lock persistSnap 5
	snapMu sync.Mutex

	// mu guards the live WAL segment, the commit buffer and the stats
	// fields. RecordDoc, RecordTick and Commit run under the engine
	// bookkeeping lock, and rotation happens inside the engine's snapshot
	// gate, so this class sits above engine.
	//
	//enblogue:lock wal 15
	mu   sync.Mutex
	walF walFile
	// buf holds the records appended since the last commit, reused across
	// commits.
	buf        []byte
	lastSync   time.Time
	snapEpoch  int64
	lastSnapAt time.Time
	lastErr    string
	closed     bool

	done      chan struct{} // stops the snapshot ticker
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

func osCreate(path string) (walFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Attach is the core durability hook (installed by package enblogue): it
// recovers dir's prior state into the freshly built engine, then returns
// the WAL recorder and durability handle the engine runs with. Unreadable
// prior state degrades gracefully — the newest valid older snapshot (or a
// fresh engine) plus whatever WAL prefix was intact, with the problem
// surfaced through DurabilityStats.LastErr — while an unusable data
// directory is a hard error.
func Attach(e *core.Engine) (core.WALRecorder, core.Durability, error) {
	s, err := openStore(e)
	if err != nil {
		return nil, nil, err
	}
	return s, s, nil
}

// openStore recovers and builds the Store for e's configured directory.
func openStore(e *core.Engine) (*Store, error) {
	engCfg := e.Config()
	cfg := engCfg.Durability
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = time.Minute
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = time.Second
	}
	if cfg.KeepSnapshots <= 0 {
		cfg.KeepSnapshots = 2
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{
		dir:    cfg.Dir,
		cfg:    cfg,
		eng:    e,
		engCfg: engCfg,
		create: osCreate,
		rename: os.Rename,
	}
	res, err := recoverInto(cfg.Dir, e, engCfg)
	if err != nil {
		return nil, err
	}
	s.snapEpoch = res.snapEpoch
	s.lastSnapAt = res.snapTime
	s.lastErr = res.warn
	// Open the live segment at the exact recovered position. The segment
	// may already exist (crash between rotation and snapshot write); its
	// records are ≤ the recovered position and appending continues the
	// sequence contiguously, so replay handles both layouts.
	if err := s.rotate(e.DocsProcessed()); err != nil {
		return nil, err
	}
	if s.cfg.SnapshotEvery > 0 {
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

func (s *Store) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			// Errors are surfaced through Stats().LastErr; the ticker keeps
			// trying.
			s.Snapshot() //nolint:errcheck
		}
	}
}

// walCommitBytes bounds the commit buffer: RecordDoc commits on its own
// once this many bytes are pending, so a long batch neither holds an
// unbounded buffer nor issues one outsized write.
const walCommitBytes = 256 << 10

// RecordDoc implements core.WALRecorder: it appends one document to the
// commit buffer, which the next Commit writes. Called under the engine
// bookkeeping lock for every consumed document; the reused buffer keeps
// the steady-state cost at zero allocations.
//
//enblogue:acquires wal
func (s *Store) RecordDoc(seq int64, it *stream.Item) {
	s.mu.Lock()
	s.buf = appendWALRecord(s.buf, seq, it)
	if len(s.buf) >= walCommitBytes {
		s.commitLocked()
	}
	s.mu.Unlock()
}

// RecordTick implements core.WALRecorder: it appends one forced-tick
// record and commits at once, together with any documents still pending.
//
//enblogue:acquires wal
func (s *Store) RecordTick(seq int64, t time.Time) {
	s.mu.Lock()
	s.buf = appendTickRecord(s.buf, seq, t)
	s.commitLocked()
	s.mu.Unlock()
}

// Commit implements core.WALRecorder: it writes every pending record to
// the live segment in one Write, then applies the fsync policy once.
//
//enblogue:acquires wal
func (s *Store) Commit() {
	s.mu.Lock()
	s.commitLocked()
	s.mu.Unlock()
}

// commitLocked writes the pending records and syncs as the fsync policy
// asks. The buffer empties whatever happens: append or sync failures
// degrade durability, never ingest, and are recorded in LastErr.
//
//enblogue:requires wal
func (s *Store) commitLocked() {
	if len(s.buf) == 0 {
		return
	}
	pending := s.buf
	s.buf = s.buf[:0]
	if s.closed || s.walF == nil {
		return
	}
	if _, err := s.walF.Write(pending); err != nil {
		s.lastErr = "wal append: " + err.Error()
		return
	}
	switch s.cfg.Fsync {
	case core.FsyncAlways:
		if err := s.walF.Sync(); err != nil {
			s.lastErr = "wal sync: " + err.Error()
		}
	case core.FsyncInterval:
		if now := time.Now(); now.Sub(s.lastSync) >= s.cfg.FsyncEvery {
			s.lastSync = now
			if err := s.walF.Sync(); err != nil {
				s.lastErr = "wal sync: " + err.Error()
			}
		}
	}
}

// rotate closes the live WAL segment and opens the one for epoch. Invoked
// by Engine.SnapshotState under the engine lock, so no input can land
// between the state export and the segment switch.
//
//enblogue:acquires wal
func (s *Store) rotate(epoch int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked()
	if s.walF != nil {
		s.walF.Sync() //nolint:errcheck // best effort; the close error matters more
		if err := s.walF.Close(); err != nil {
			s.walF = nil
			s.lastErr = "wal close: " + err.Error()
			return fmt.Errorf("persist: wal close: %w", err)
		}
		s.walF = nil
	}
	f, err := s.create(filepath.Join(s.dir, walName(epoch)))
	if err != nil {
		s.lastErr = "wal open: " + err.Error()
		return fmt.Errorf("persist: wal open: %w", err)
	}
	s.walF = f
	return nil
}

// Snapshot implements core.Durability: it exports the engine state (under
// the engine lock, rotating the WAL at the same instant), then encodes and
// writes the snapshot outside all engine locks via temp-file + rename.
//
//enblogue:acquires persistSnap
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	st, err := s.eng.SnapshotState(s.rotate)
	if err != nil {
		s.noteErr("snapshot", err)
		return err
	}
	if err := s.writeSnapshot(&st); err != nil {
		s.noteErr("snapshot", err)
		return err
	}
	s.mu.Lock()
	s.snapEpoch = st.Docs
	s.lastSnapAt = time.Now()
	s.lastErr = ""
	s.mu.Unlock()
	s.prune()
	return nil
}

// writeSnapshot persists st as the snapshot of its epoch: encode it into a
// temp file, sync, close, rename into place, then sync the directory. A
// crash at any point leaves either the previous snapshot set intact or the
// new file fully in place — never a torn named snapshot.
func (s *Store) writeSnapshot(st *core.EngineState) error {
	final := filepath.Join(s.dir, snapName(st.Docs))
	tmp := final + ".tmp"
	os.Remove(tmp) //nolint:errcheck // stale tmp from a previous crash
	f, err := s.create(tmp)
	if err != nil {
		return fmt.Errorf("persist: snapshot create: %w", err)
	}
	if err := encodeSnapshot(f, s.engCfg, st); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("persist: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := s.rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()  //nolint:errcheck // not all filesystems support dir sync
		d.Close() //nolint:errcheck
	}
	return nil
}

// prune removes snapshot generations beyond KeepSnapshots and the WAL
// segments older than the oldest kept snapshot (their records are all
// covered by it).
func (s *Store) prune() {
	snaps := listEpochs(s.dir, snapPrefix, snapSuffix)
	if len(snaps) <= s.cfg.KeepSnapshots {
		return
	}
	drop := snaps[:len(snaps)-s.cfg.KeepSnapshots]
	oldestKept := snaps[len(snaps)-s.cfg.KeepSnapshots]
	for _, e := range drop {
		os.Remove(filepath.Join(s.dir, snapName(e))) //nolint:errcheck
	}
	for _, e := range listEpochs(s.dir, walPrefix, walSuffix) {
		// Segment e holds seqs in (e, nextRotation]; rotations happen at
		// snapshot epochs, so every record in a segment below the oldest
		// kept snapshot is at or below that snapshot's epoch.
		if e < oldestKept {
			os.Remove(filepath.Join(s.dir, walName(e))) //nolint:errcheck
		}
	}
}

func (s *Store) noteErr(op string, err error) {
	s.mu.Lock()
	s.lastErr = op + ": " + err.Error()
	s.mu.Unlock()
}

// Stats implements core.Durability. It commits first, so WALBytes counts
// every record logged so far.
//
//enblogue:acquires wal
func (s *Store) Stats() core.DurabilityStats {
	s.mu.Lock()
	s.commitLocked()
	st := core.DurabilityStats{
		SnapshotEpoch:  s.snapEpoch,
		LastSnapshotAt: s.lastSnapAt,
		LastErr:        s.lastErr,
	}
	s.mu.Unlock()
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, ent := range entries {
			if _, ok := parseEpoch(ent.Name(), walPrefix, walSuffix); !ok {
				continue
			}
			st.WALSegments++
			if info, err := ent.Info(); err == nil {
				st.WALBytes += info.Size()
			}
		}
	}
	return st
}

// Close implements core.Durability: it stops the snapshot ticker, commits,
// and syncs and closes the live WAL segment. Idempotent.
//
//enblogue:acquires wal
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		if s.done != nil {
			close(s.done)
			s.wg.Wait()
		}
		s.mu.Lock()
		s.commitLocked()
		if s.walF != nil {
			s.walF.Sync() //nolint:errcheck
			s.closeErr = s.walF.Close()
			s.walF = nil
		}
		s.closed = true
		s.mu.Unlock()
	})
	return s.closeErr
}

// listEpochs returns the epochs of dir's snapshot or WAL files, ascending.
func listEpochs(dir, prefix, suffix string) []int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []int64
	for _, ent := range entries {
		if e, ok := parseEpoch(ent.Name(), prefix, suffix); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// recoverResult reports what recovery found.
type recoverResult struct {
	snapEpoch int64     // epoch of the restored snapshot (0 if none)
	snapTime  time.Time // its file modification time
	warn      string    // non-fatal degradation, "" when recovery was clean
}

// recoverInto restores dir's durable state into e — newest valid snapshot,
// then WAL replay. Every degradation (an unreadable or mismatched
// snapshot, a mid-log corruption, a sequence gap) is collected as a
// warning, and the longest trustworthy prefix is recovered; a torn
// trailing WAL record, the normal crash artifact, stops replay cleanly
// with no warning. Returned errors with the engine already partially
// restored cannot happen: every candidate snapshot is fully validated
// (checksum, structure, fingerprint) before any engine state is touched,
// and a restore failure after validation is a hard error.
func recoverInto(dir string, e *core.Engine, engCfg core.Config) (recoverResult, error) {
	var res recoverResult
	var warns []string
	fp := fingerprintOf(engCfg)

	snaps := listEpochs(dir, snapPrefix, snapSuffix)
	restored := int64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		name := snapName(snaps[i])
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		var d *decodedSnap
		if err == nil {
			d, err = decodeSnapshot(data, fp)
		}
		if err != nil {
			warns = append(warns, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if err := e.RestoreState(d.materialize()); err != nil {
			return res, fmt.Errorf("persist: restoring %s: %w", name, err)
		}
		restored = d.st.Docs
		res.snapEpoch = d.st.Docs
		if info, err := os.Stat(path); err == nil {
			res.snapTime = info.ModTime()
		}
		break
	}

	replayWAL(dir, e, restored, &warns)
	res.warn = strings.Join(warns, "; ")
	return res, nil
}

// replayWAL feeds every WAL record above the restored position into e, in
// file order, stopping with a warning at the first unreadable segment,
// corrupt record or sequence gap. A segment whose successor starts at or
// below the restored position is not read at all: segment E holds records
// only up to the next rotation, which is its successor's epoch, so the
// snapshot covers all of it — damage there cannot cost the tail. Documents
// go through ConsumeBatch in batches; a forced tick goes through Tick,
// whose guard drops a tick the restored snapshot already covers (its time
// is at or before the snapshot's newest evaluation).
func replayWAL(dir string, e *core.Engine, restored int64, warns *[]string) {
	segs := listEpochs(dir, walPrefix, walSuffix)
	next := restored + 1
	batch := make([]*stream.Item, 0, 1024)
	flush := func() {
		if len(batch) > 0 {
			e.ConsumeBatch(batch)
			batch = batch[:0]
		}
	}
	for si, seg := range segs {
		if si+1 < len(segs) && segs[si+1] <= restored {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, walName(seg)))
		if err != nil {
			flush()
			*warns = append(*warns, "wal read: "+err.Error())
			return
		}
		for li := 1; len(data) > 0; li++ {
			line, rest, _ := bytes.Cut(data, []byte{'\n'})
			data = rest
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			rec, derr := decodeWALLine(line)
			if derr != nil {
				flush()
				// A torn final record in the final segment is the normal
				// crash artifact: the write was cut mid-line. Everything
				// before it is intact, so recovery stops exactly there.
				if si == len(segs)-1 && len(bytes.TrimSpace(rest)) == 0 {
					return
				}
				*warns = append(*warns, fmt.Sprintf("wal segment %d line %d: %v", seg, li, derr))
				return
			}
			// A document record must be the next document; a tick record
			// follows the document before that, or one the snapshot covers.
			want := next
			if rec.item == nil {
				want = next - 1
			}
			if rec.seq > want {
				flush()
				*warns = append(*warns, fmt.Sprintf("wal segment %d: sequence gap, want %d got %d", seg, want, rec.seq))
				return
			}
			switch {
			case rec.item == nil:
				flush()
				e.Tick(rec.tick)
			case rec.seq < next:
				// Covered by the restored snapshot (or by an earlier
				// segment after a crash between rotation and snapshot).
			default:
				batch = append(batch, rec.item)
				next++
				if len(batch) == cap(batch) {
					flush()
				}
			}
		}
	}
	flush()
}

// materialize resolves a validated decoded snapshot into a live
// core.EngineState: it interns the tag table, then fills every pair key
// from its two interned IDs. Intern IDs assigned here generally differ
// from the exporting process's — rankings are ID-independent, so this is
// invisible.
func (d *decodedSnap) materialize() core.EngineState {
	ids := make([]uint32, len(d.table))
	for i, t := range d.table {
		ids[i] = intern.Intern(t)
	}
	next := 0
	forEachKey(&d.st, func(k *pairs.Key) {
		dk := d.keys[next]
		*k = pairs.KeyFromIDs(ids[dk.a], ids[dk.b])
		next++
	})
	return d.st
}
