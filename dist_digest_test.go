package enblogue_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"enblogue"
)

// rankingDigest is a SHA-256 over every published ranking's event time and,
// per topic, both tag strings and the score's float bits: one value that
// changes under any reordering, any different pair, or a one-ulp score
// difference.
func rankingDigest(rs []enblogue.Ranking) string { return digest(rs, true) }

// pairOrderDigest is rankingDigest without the score bits: it changes only
// when a ranking holds different pairs or holds them in another order, so
// it guards pair order across a change that moves scores by rounding.
func pairOrderDigest(rs []enblogue.Ranking) string { return digest(rs, false) }

func digest(rs []enblogue.Ranking, scores bool) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.At.UnixNano()))
		h.Write(buf[:])
		for _, tp := range r.Topics {
			t1, t2 := tp.Pair.Tags()
			fmt.Fprintf(h, "%s\x00%s\x00", t1, t2)
			if scores {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tp.Score))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDistributionModeRankingDigest pins distribution-mode rankings on the
// acceptance workloads: the relative-entropy correlation must rank
// bit-identically however its distributions are stored. Both shard counts
// must produce the same digest. The full digests were re-pinned when the
// detector moved its scores to log space, which moves score bits by
// rounding; the pair-order digests were recorded before that move and did
// not change with it. Both archive digests were re-pinned when the tick's
// snapshot began dropping pairs whose windows had emptied, which until then
// were scored with count 0 until a document-count sweep removed them; the
// tweets digests did not move.
func TestDistributionModeRankingDigest(t *testing.T) {
	want := map[string]string{
		"tweets":  "5d91f51c68cd5e7a867ef2cbda1ddfa5dc599e4e500cc842d87a6f52480af935",
		"archive": "42af91f2cad672320e07de4a84626bb4d753e4300ed88763063eafa998304c83",
	}
	// wantOrder pins pair order alone, so a change that moves score bits
	// by rounding can re-pin want only while these stay put.
	wantOrder := map[string]string{
		"tweets":  "cf3d61c4e9a72f526f42702c5ddd991a0ee6a74cad93d86e40809a54d910d0ec",
		"archive": "e5aa84a689766220fe075bfa45bba3251241d923c597ee80f29ea2476a1ccdef",
	}
	for name, items := range equivWorkloads(t) {
		for _, shards := range []int{1, 4} {
			rs := consumeSerial(items, shards, enblogue.WithDistributionMode())
			if topics := countTopics(rs); topics == 0 {
				t.Fatalf("%s at %d shards: distribution mode ranked no topics; the digest would pin nothing", name, shards)
			}
			if got := pairOrderDigest(rs); got != wantOrder[name] {
				t.Errorf("%s at %d shards: distribution-mode pair-order digest = %s, want %s", name, shards, got, wantOrder[name])
			}
			if got := rankingDigest(rs); got != want[name] {
				t.Errorf("%s at %d shards: distribution-mode ranking digest = %s, want %s", name, shards, got, want[name])
			}
		}
	}
}

func countTopics(rs []enblogue.Ranking) int {
	n := 0
	for _, r := range rs {
		n += len(r.Topics)
	}
	return n
}
