package persist

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"enblogue/internal/core"
)

// Crash-injection harness: the Store's create and rename seams are swapped
// for fault-point implementations that fail after a byte budget, on fsync,
// on close, or on rename — simulating a crash at every I/O step of the
// snapshot write and the WAL append. After each injected failure the store
// is abandoned (no Close: the crash) and a fresh engine recovers from the
// directory. The invariant under test: recovery always lands on a valid
// pre-crash prefix of the stream — bit-identical to a never-crashed engine
// fed that prefix — or fails with a clean error in strict mode. Never torn
// state, never a wedged engine.

var errInjected = errors.New("injected fault")

// faultFile wraps a real walFile, failing according to its knobs. A shared
// *byteBudget models a device that stops accepting writes mid-stream: the
// prefix that fit is persisted (the torn write), the rest is not.
type faultFile struct {
	f         walFile
	budget    *int64 // remaining writable bytes; nil = unlimited
	failSync  bool
	failClose bool
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.budget == nil {
		return ff.f.Write(p)
	}
	if *ff.budget <= 0 {
		return 0, errInjected
	}
	if int64(len(p)) > *ff.budget {
		n, _ := ff.f.Write(p[:*ff.budget])
		*ff.budget = 0
		return n, errInjected
	}
	*ff.budget -= int64(len(p))
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.failSync {
		return errInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	err := ff.f.Close()
	if ff.failClose {
		return errInjected
	}
	return err
}

// openCaptured builds a durable engine on dir and returns the Store behind
// it, so tests can reach the injection seams.
func openCaptured(t *testing.T, cfg core.Config) (*core.Engine, *Store) {
	t.Helper()
	var captured *Store
	core.SetDurabilityHook(func(e *core.Engine) (core.WALRecorder, core.Durability, error) {
		s, err := openStore(e)
		if err != nil {
			return nil, nil, err
		}
		captured = s
		return s, s, nil
	})
	defer core.SetDurabilityHook(Attach)
	e := core.New(cfg)
	if captured == nil {
		t.Fatal("durability hook did not run")
	}
	return e, captured
}

// assertRecoversPrefix recovers dir into a fresh engine and asserts the
// result is bit-identical to a never-crashed engine fed the recovered
// prefix. Returns the recovered document count.
func assertRecoversPrefix(t *testing.T, dir string, shards int) int64 {
	t.Helper()
	items := testItems(t)
	b := core.New(durableConfig(testConfig(shards), dir))
	defer b.Close()
	n := b.DocsProcessed()
	if n < 0 || n > int64(len(items)) {
		t.Fatalf("recovered %d docs, outside the stream", n)
	}
	mustEqualState(t, reference(items, int(n), shards), b)
	return n
}

// assertNamedSnapshotsValid decodes every named (non-tmp) snapshot in dir;
// the temp-file + rename protocol must never leave a torn named snapshot.
func assertNamedSnapshotsValid(t *testing.T, dir string) {
	t.Helper()
	for _, epoch := range listEpochs(dir, snapPrefix, snapSuffix) {
		data, err := os.ReadFile(filepath.Join(dir, snapName(epoch)))
		if err != nil {
			t.Fatalf("read snapshot %d: %v", epoch, err)
		}
		if _, err := decodeClaimed(data); err != nil {
			t.Fatalf("named snapshot %d is torn: %v", epoch, err)
		}
	}
}

// snapshotFault describes one injected failure inside the snapshot write
// path (create, write, sync, close, rename of the temp file).
type snapshotFault struct {
	name string
	arm  func(s *Store, origCreate func(string) (walFile, error))
}

var snapshotFaults = []snapshotFault{
	{"create", func(s *Store, orig func(string) (walFile, error)) {
		s.create = func(path string) (walFile, error) {
			if strings.HasSuffix(path, ".tmp") {
				return nil, errInjected
			}
			return orig(path)
		}
	}},
	{"write", tornSnapshot(128)}, // inside the first chunk
	// After the first chunk has reached the temp file: the first write
	// holds snapChunk bytes plus at most one record.
	{"write-later-chunk", tornSnapshot(laterChunkBudget)},
	{"sync", func(s *Store, orig func(string) (walFile, error)) {
		s.create = func(path string) (walFile, error) {
			f, err := orig(path)
			if err != nil || !strings.HasSuffix(path, ".tmp") {
				return f, err
			}
			return &faultFile{f: f, failSync: true}, nil
		}
	}},
	{"close", func(s *Store, orig func(string) (walFile, error)) {
		s.create = func(path string) (walFile, error) {
			f, err := orig(path)
			if err != nil || !strings.HasSuffix(path, ".tmp") {
				return f, err
			}
			return &faultFile{f: f, failClose: true}, nil
		}
	}},
	{"rename", func(s *Store, _ func(string) (walFile, error)) {
		s.rename = func(oldpath, newpath string) error { return errInjected }
	}},
}

// laterChunkBudget tears the snapshot in its second chunk; crashEpoch's
// state must encode to more than this.
const laterChunkBudget = snapChunk + snapChunk/4

// tornSnapshot arms a device that stops accepting snapshot bytes after
// budget of them.
func tornSnapshot(budget int64) func(*Store, func(string) (walFile, error)) {
	return func(s *Store, orig func(string) (walFile, error)) {
		s.create = func(path string) (walFile, error) {
			f, err := orig(path)
			if err != nil || !strings.HasSuffix(path, ".tmp") {
				return f, err
			}
			left := budget
			return &faultFile{f: f, budget: &left}, nil
		}
	}
}

// crashEpoch is the document count at which TestSnapshotCrashPoints'
// failing snapshot is taken.
const crashEpoch = 2500

// TestSnapshotCrashPoints injects a failure at every I/O step of the
// snapshot protocol. Each must fail the Snapshot call loudly, leave every
// named snapshot valid and no new one, and — because the WAL is untouched
// — recovery after the crash must reproduce the full pre-crash stream.
func TestSnapshotCrashPoints(t *testing.T) {
	items := testItems(t)
	for _, fp := range snapshotFaults {
		t.Run(fp.name, func(t *testing.T) {
			dir := t.TempDir()
			e, s := openCaptured(t, durableConfig(testConfig(2), dir))
			e.ConsumeBatch(items[:400])
			if err := e.Snapshot(); err != nil {
				t.Fatalf("baseline snapshot: %v", err)
			}
			e.ConsumeBatch(items[400:crashEpoch])
			if n := len(stateBytes(e)); n <= laterChunkBudget {
				t.Fatalf("fixture snapshot is %d bytes, want more than %d so a later chunk can tear", n, laterChunkBudget)
			}

			fp.arm(s, osCreate)
			if err := e.Snapshot(); err == nil {
				t.Fatal("injected snapshot fault did not surface as an error")
			}
			if st, _ := e.DurabilityStats(); st.LastErr == "" {
				t.Error("LastErr empty after injected snapshot failure")
			}
			if st, _ := e.DurabilityStats(); st.SnapshotEpoch != 400 {
				t.Errorf("SnapshotEpoch advanced to %d past a failed snapshot, want 400", st.SnapshotEpoch)
			}
			e.ConsumeBatch(items[crashEpoch : crashEpoch+100])
			// Crash: abandon e without Close.

			assertNamedSnapshotsValid(t, dir)
			if got := listEpochs(dir, snapPrefix, snapSuffix); !slices.Equal(got, []int64{400}) {
				t.Errorf("named snapshots %v after the failed one, want only [400]", got)
			}
			if n := assertRecoversPrefix(t, dir, 2); n != crashEpoch+100 {
				t.Fatalf("recovered %d docs, want the full %d (WAL is intact)", n, crashEpoch+100)
			}
		})
	}
}

// TestSnapshotCrashLeavesStaleTmp models a crash after the temp file was
// written but before cleanup: a stale .tmp (even full of garbage) must be
// invisible to recovery and overwritten by the next snapshot.
func TestSnapshotCrashLeavesStaleTmp(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()
	a := core.New(durableConfig(testConfig(2), dir))
	a.ConsumeBatch(items[:500])
	a.Close()

	tmp := filepath.Join(dir, snapName(500)+".tmp")
	if err := os.WriteFile(tmp, []byte("torn garbage from a dead process"), 0o644); err != nil {
		t.Fatalf("plant tmp: %v", err)
	}

	b := core.New(durableConfig(testConfig(2), dir))
	defer b.Close()
	if got := b.DocsProcessed(); got != 500 {
		t.Fatalf("recovered %d docs with stale tmp present, want 500", got)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatalf("snapshot over stale tmp: %v", err)
	}
	assertNamedSnapshotsValid(t, dir)
}

// TestWALWriteCrash exhausts the WAL byte budget mid-record: ingest must
// continue un-durably (LastErr set, engine unharmed), and recovery lands
// on the longest intact prefix.
func TestWALWriteCrash(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()
	e, s := openCaptured(t, durableConfig(testConfig(2), dir))
	e.ConsumeBatch(items[:300])

	// Device stops accepting bytes partway through a record.
	budget := int64(57)
	s.mu.Lock()
	s.walF = &faultFile{f: s.walF, budget: &budget}
	s.mu.Unlock()
	e.ConsumeBatch(items[300:600])

	if got, want := e.DocsProcessed(), int64(600); got != want {
		t.Fatalf("WAL failure throttled ingest: %d docs, want %d", got, want)
	}
	if st, _ := e.DurabilityStats(); !strings.Contains(st.LastErr, "wal append") {
		t.Errorf("LastErr = %q, want a wal append failure", st.LastErr)
	}
	// Crash.

	n := assertRecoversPrefix(t, dir, 2)
	if n < 300 || n >= 600 {
		t.Fatalf("recovered %d docs, want a torn prefix in [300, 600)", n)
	}
}

// TestWALSyncCrash fails every fsync under FsyncAlways: durability degrades
// (LastErr), ingest continues, and — the writes themselves landing — the
// full stream still recovers.
func TestWALSyncCrash(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()
	cfg := durableConfig(testConfig(2), dir)
	cfg.Durability.Fsync = core.FsyncAlways
	e, s := openCaptured(t, cfg)
	e.ConsumeBatch(items[:100])

	s.mu.Lock()
	s.walF = &faultFile{f: s.walF, failSync: true}
	s.mu.Unlock()
	e.ConsumeBatch(items[100:400])

	if st, _ := e.DurabilityStats(); !strings.Contains(st.LastErr, "wal sync") {
		t.Errorf("LastErr = %q, want a wal sync failure", st.LastErr)
	}
	// Crash.

	if n := assertRecoversPrefix(t, dir, 2); n != 400 {
		t.Fatalf("recovered %d docs, want 400 (writes landed, only fsync failed)", n)
	}
}

// TestWALRotateCrash fails the segment create during snapshot-time
// rotation: the snapshot must error out, documents consumed afterwards are
// knowingly un-logged, and recovery lands exactly at the rotation epoch.
func TestWALRotateCrash(t *testing.T) {
	items := testItems(t)
	dir := t.TempDir()
	e, s := openCaptured(t, durableConfig(testConfig(2), dir))
	e.ConsumeBatch(items[:500])

	s.create = func(path string) (walFile, error) {
		if strings.HasPrefix(filepath.Base(path), walPrefix) {
			return nil, errInjected
		}
		return osCreate(path)
	}
	if err := e.Snapshot(); err == nil {
		t.Fatal("snapshot with failing rotation did not error")
	}
	e.ConsumeBatch(items[500:700]) // un-logged: the live segment is gone
	// Crash.

	if n := assertRecoversPrefix(t, dir, 2); n != 500 {
		t.Fatalf("recovered %d docs, want exactly the 500-doc rotation epoch", n)
	}
}

// TestUnusableDataDirPanics pins the loud-failure contract: a data
// directory that cannot even be created must panic construction rather
// than run silently non-durable.
func TestUnusableDataDirPanics(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatalf("plant blocker: %v", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("core.New with an unusable data dir did not panic")
		}
	}()
	core.New(durableConfig(testConfig(1), blocker))
}
