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
func rankingDigest(rs []enblogue.Ranking) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.At.UnixNano()))
		h.Write(buf[:])
		for _, tp := range r.Topics {
			t1, t2 := tp.Pair.Tags()
			fmt.Fprintf(h, "%s\x00%s\x00", t1, t2)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tp.Score))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDistributionModeRankingDigest pins distribution-mode rankings on the
// acceptance workloads to digests recorded before co-tag distributions
// moved onto the interned pair tracker: the relative-entropy correlation
// must rank bit-identically however its distributions are stored. Both
// shard counts must produce the same digest.
func TestDistributionModeRankingDigest(t *testing.T) {
	want := map[string]string{
		"tweets":  "fe1c0ff994fe0f56d2be3bc4bdd9c6d117ac1a3d61fb2b7666b964b96b78307c",
		"archive": "2a0d313920022dba87f7ae9597beb522b4b690d94e853dcdd21dd2272b8cbf7d",
	}
	for name, items := range equivWorkloads(t) {
		for _, shards := range []int{1, 4} {
			rs := consumeSerial(items, shards, enblogue.WithDistributionMode())
			if topics := countTopics(rs); topics == 0 {
				t.Fatalf("%s at %d shards: distribution mode ranked no topics; the digest would pin nothing", name, shards)
			}
			got := rankingDigest(rs)
			if got != want[name] {
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
