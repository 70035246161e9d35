package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/stream"
)

// goldenHash is the committed SHA-256 of the canonical snapshot encoding of
// goldenState under FormatVersion 1. It pins the on-disk format: if this
// test fails, snapshots written by older builds can no longer be read back
// byte-compatibly. That is sometimes the right call — but it must be a
// call, not an accident. See the failure message for the procedure.
const goldenHash = "a734b45638210238a72901520fa5021cd44ce0557d93434e170ac3be225e48cc"

// goldenItems is a fixed workload crafted inline (no generator dependency)
// that exercises tags, entities, pairs, and seed warmup while staying
// inside the first tick window: pre-tick state holds only integral counts,
// so the encoding is exact — identical bytes on every architecture.
func goldenItems() []*stream.Item {
	base := time.Date(2011, 6, 1, 12, 0, 0, 0, time.UTC)
	vocab := []string{"athens", "sigmod", "volcano", "ash", "travel", "greece", "keynote", "demo"}
	items := make([]*stream.Item, 0, 64)
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 64; i++ {
		a, b := next(len(vocab)), next(len(vocab))
		it := &stream.Item{
			Time:  base.Add(time.Duration(i) * 30 * time.Second),
			DocID: fmt.Sprintf("g-%03d", i),
			Tags:  []string{vocab[a], vocab[(a+1+b%3)%len(vocab)]},
		}
		if i%7 == 0 {
			it.Entities = []string{"Athens"}
		}
		items = append(items, it)
	}
	return items
}

func goldenState(shards int) ([]byte, core.Config) {
	cfg := testConfig(shards)
	e := core.New(cfg)
	defer e.Close()
	e.ConsumeBatch(goldenItems())
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	return encodeSnapshot(cfg, &st), cfg
}

// TestGoldenSnapshotBytes pins three layers of byte stability: the same
// state encodes identically across runs, across shard counts, and to the
// exact bytes every build of FormatVersion 1 has produced.
func TestGoldenSnapshotBytes(t *testing.T) {
	run1, _ := goldenState(1)
	run2, _ := goldenState(1)
	if !bytes.Equal(run1, run2) {
		t.Fatal("two runs over identical state produced different snapshot bytes")
	}
	sharded, _ := goldenState(8)
	if !bytes.Equal(run1, sharded) {
		t.Fatal("snapshot bytes depend on the shard count; the encoding must be layout-independent")
	}

	got := sha256.Sum256(run1)
	if hex.EncodeToString(got[:]) != goldenHash {
		t.Fatalf(`snapshot byte format CHANGED: sha256 = %s, want %s.

If this change is intentional you are breaking read-compatibility with
every snapshot already on disk. The procedure is:
  1. bump FormatVersion in internal/persist/encode.go (decode rejects
     other versions loudly, so old files fail with a clear message
     instead of misparsing),
  2. update goldenHash in this test to the new value above,
  3. note the bump in DESIGN.md §11.
If the change is NOT intentional, you have introduced nondeterminism or
an accidental layout change into encodeSnapshot — fix that instead.`,
			hex.EncodeToString(got[:]), goldenHash)
	}
}

// TestGoldenRoundTrip keeps the golden fixture honest: the pinned bytes
// must decode and restore into an engine that re-exports the same bytes.
func TestGoldenRoundTrip(t *testing.T) {
	data, cfg := goldenState(1)
	d, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode golden snapshot: %v", err)
	}
	e := core.New(cfg)
	defer e.Close()
	if err := e.RestoreState(d.materialize()); err != nil {
		t.Fatalf("restore golden snapshot: %v", err)
	}
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	if !bytes.Equal(encodeSnapshot(cfg, &st), data) {
		t.Fatal("golden snapshot did not survive a decode/restore/re-encode round trip")
	}
}
