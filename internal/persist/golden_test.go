package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/intern"
	"enblogue/internal/stream"
)

// goldenHash is the committed SHA-256 of the canonical snapshot encoding of
// goldenState under FormatVersion 2. It pins the on-disk format: if this
// test fails, snapshots written by older builds can no longer be read back
// byte-compatibly. That is sometimes the right call — but it must be a
// call, not an accident. See the failure message for the procedure.
const goldenHash = "6fe8f27f6d0f77dca93d3a5ca5bc7fd6fab36603c06a6c8844d44b90a8f21062"

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
	return snapshotBytes(cfg, &st), cfg
}

// TestGoldenSnapshotBytes pins three layers of byte stability: the same
// state encodes identically across runs, across shard counts, and to the
// exact bytes every build of FormatVersion 2 has produced.
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
	d, err := decodeSnapshot(data, fingerprintOf(cfg))
	if err != nil {
		t.Fatalf("decode golden snapshot: %v", err)
	}
	e := core.New(cfg)
	defer e.Close()
	if err := e.RestoreState(d.materialize()); err != nil {
		t.Fatalf("restore golden snapshot: %v", err)
	}
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	if !bytes.Equal(snapshotBytes(cfg, &st), data) {
		t.Fatal("golden snapshot did not survive a decode/restore/re-encode round trip")
	}
}

// adversarialHash pins the snapshot of adversarialItems the same way
// goldenHash pins goldenItems. Its vocabulary is what a canonical-order
// shortcut gets wrong and a lowercase-only vocabulary cannot show: tags
// holding bytes below '+' (space, '!', '#'), '+' itself, a byte above
// ASCII, tags that extend another tag by "+" ("a" and "a+b", "new york"
// and "new york+times"), where one key's first tag plus "+" is a proper
// prefix of another's, and tags that extend another by a byte below '+'
// and nothing else ("b" and "b!", "n" and "n y"), where "t1+" order and
// plain order disagree.
const adversarialHash = "61126069fc4b98b7d6ab4a912a5a3e0743e0b54a8a9aea1eb76cde3b6b2715d4"

// adversarialVocab is interned in reverse (last tag first) by
// adversarialState, so ID order disagrees with string order throughout.
var adversarialVocab = []string{
	"a", "a!", "a+b", "a b", "ab", "a+", "new york", "new york+times",
	"new", "+", "#", "a\xff", "b", "b!", "b c", "n", "n y",
}

// adversarialItems is a fixed pre-tick stream over adversarialVocab, three
// tags per document, so every section's order is exercised on exact
// integral counts.
func adversarialItems() []*stream.Item {
	base := time.Date(2011, 6, 1, 12, 0, 0, 0, time.UTC)
	n := len(adversarialVocab)
	items := make([]*stream.Item, 0, 64)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 64; i++ {
		a, b, c := next(), next(), next()
		items = append(items, &stream.Item{
			Time:  base.Add(time.Duration(i) * 30 * time.Second),
			DocID: fmt.Sprintf("x-%03d", i),
			Tags:  []string{adversarialVocab[a], adversarialVocab[b], adversarialVocab[c]},
		})
	}
	return items
}

func adversarialState(shards int) []byte {
	for i := len(adversarialVocab) - 1; i >= 0; i-- {
		intern.Intern(adversarialVocab[i])
	}
	cfg := testConfig(shards)
	e := core.New(cfg)
	defer e.Close()
	e.ConsumeBatch(adversarialItems())
	st, _ := e.SnapshotState(nil) // a nil rotate cannot fail
	return snapshotBytes(cfg, &st)
}

// TestAdversarialSnapshotBytes pins the adversarial vocabulary's snapshot
// at shards 1 and 8: the canonical order over tags with '+', bytes below
// it and "+"-extended prefixes must not move.
func TestAdversarialSnapshotBytes(t *testing.T) {
	one, eight := adversarialState(1), adversarialState(8)
	if !bytes.Equal(one, eight) {
		t.Fatal("adversarial snapshot bytes depend on the shard count")
	}
	if got := sha256.Sum256(one); hex.EncodeToString(got[:]) != adversarialHash {
		t.Fatalf("adversarial snapshot bytes CHANGED: sha256 = %s, want %s (see TestGoldenSnapshotBytes for the procedure)",
			hex.EncodeToString(got[:]), adversarialHash)
	}
}
