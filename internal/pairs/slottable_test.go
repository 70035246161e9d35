package pairs

import (
	"math/rand"
	"testing"
	"time"
)

// clusterKeys returns n distinct non-zero keys whose home in a table of
// minSlotTable entries is want, found by scanning packed values upward from
// start. Keys homed on the last entry make probe runs wrap past the end.
func clusterKeys(n, want int, start uint64) []uint64 {
	probe := slotTable{shift: 64 - 3} // minSlotTable = 8 entries
	var out []uint64
	for k := start; len(out) < n; k++ {
		if k != 0 && probe.home(k) == want {
			out = append(out, k)
		}
	}
	return out
}

// slotTableKeys is FuzzSlotTableMatchesMap's key universe: one probe
// cluster homed on the first entry of the smallest table, one homed on its
// last entry (wrapping), and keys spread by the hash. Keys of one cluster
// at the smallest size stay adjacent after growth, so runs stay long.
var slotTableKeys = func() []uint64 {
	keys := clusterKeys(12, 0, 1)
	keys = append(keys, clusterKeys(12, minSlotTable-1, 1)...)
	rng := rand.New(rand.NewSource(7))
	for len(keys) < 40 {
		if k := rng.Uint64(); k != 0 {
			keys = append(keys, k)
		}
	}
	return keys
}()

// FuzzSlotTableMatchesMap runs generated put/get/delete sequences over
// slotTableKeys against a map[uint64]int32 and requires the table to agree
// on every key after every operation: backward-shift deletion must leave
// every remaining key reachable from its home, across growth and across
// probe runs that wrap past the table's end.
func FuzzSlotTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 1, 1, 1, 2})
	// Fill one cluster, then delete from its middle and front.
	var fill []byte
	for i := byte(0); i < 12; i++ {
		fill = append(fill, 0, i)
	}
	f.Add(append(fill, 2, 5, 2, 0, 1, 11, 2, 11, 1, 6))
	// The same on the wrapping cluster, interleaved with spread keys.
	var wrap []byte
	for i := byte(12); i < 40; i++ {
		wrap = append(wrap, 0, i)
	}
	f.Add(append(wrap, 2, 13, 2, 12, 2, 23, 0, 13, 2, 30))
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 300*seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl slotTable
		ref := make(map[uint64]int32)
		for i := 0; i+1 < len(data); i += 2 {
			k := slotTableKeys[int(data[i+1])%len(slotTableKeys)]
			switch data[i] % 3 {
			case 0:
				p, present := tbl.ref(k)
				if _, want := ref[k]; present != want {
					t.Fatalf("op %d: ref(%#x) present = %v, map says %v", i/2, k, present, want)
				}
				*p = int32(i)
				ref[k] = int32(i)
			case 1:
				got, ok := tbl.get(k)
				want, wantOK := ref[k]
				if ok != wantOK || got != want {
					t.Fatalf("op %d: get(%#x) = %d,%v, map says %d,%v", i/2, k, got, ok, want, wantOK)
				}
			case 2:
				tbl.del(k)
				delete(ref, k)
			}
			if tbl.n != len(ref) {
				t.Fatalf("op %d: %d entries, map holds %d", i/2, tbl.n, len(ref))
			}
			for _, k := range slotTableKeys {
				got, ok := tbl.get(k)
				if want, wantOK := ref[k]; ok != wantOK || got != want {
					t.Fatalf("op %d: key %#x reads %d,%v, map says %d,%v", i/2, k, got, ok, want, wantOK)
				}
			}
		}
	})
}

// The fuzz universe's clusters really collide: each holds keys sharing one
// home in the smallest table.
func TestSlotTableClustersCollide(t *testing.T) {
	var tbl slotTable
	tbl.grow()
	for _, c := range [][]uint64{slotTableKeys[:12], slotTableKeys[12:24]} {
		for _, k := range c {
			if tbl.home(k) != tbl.home(c[0]) {
				t.Fatalf("key %#x homes on %d, cluster on %d", k, tbl.home(k), tbl.home(c[0]))
			}
		}
	}
	if tbl.home(slotTableKeys[12]) != minSlotTable-1 {
		t.Fatal("second cluster does not home on the last entry")
	}
}

// sinkSlot keeps the benchmarked lookups live.
var sinkSlot int32

// BenchmarkUpsertHit times ShardedTracker.upsert on pairs already tracked —
// the ingest hit path — over a shard holding 50 000 pairs.
func BenchmarkUpsertHit(b *testing.B) {
	tr := NewShardedTracker(Config{Buckets: 4, Resolution: time.Hour, MaxPairs: 1 << 20})
	sh := tr.shards[0]
	keys := make([]Key, 50000)
	for i := range keys {
		keys[i] = Key{packed: uint64(i+1)<<32 | uint64(i+2)}
		sh.upsert(keys[i])
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSlot = sh.upsert(keys[i%len(keys)])
	}
}
