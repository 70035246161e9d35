package pairs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// checkWheel verifies shard sh's wheel against its touch lists: every
// slot's total is the sum of its entries and spills, every slot with
// entries is tracked, every spill sits on a saturated entry, every list
// keeps within its compaction bound, and no slot awaits a purge between
// calls.
func checkWheel(t *testing.T, sh *trackerShard) {
	t.Helper()
	w := &sh.wheel
	sums := make([]uint64, len(w.totals))
	for i, l := range w.lists {
		distinct := map[int32]bool{}
		for _, e := range l {
			sums[e.slot] += uint64(e.n)
			distinct[e.slot] = true
		}
		if len(l) > 2*len(distinct)+2*minMark {
			t.Fatalf("list %d holds %d entries of %d slots", i, len(l), len(distinct))
		}
	}
	for k, v := range w.spill {
		sums[k.slot] += v
		saturated := false
		for _, e := range w.lists[k.list] {
			saturated = saturated || e.slot == k.slot && e.n == math.MaxUint32
		}
		if !saturated {
			t.Fatalf("spill %+v of %d has no saturated entry", k, v)
		}
	}
	for _, a := range w.at {
		if a != -1 {
			t.Fatalf("compaction scratch left dirty: %v", w.at)
		}
	}
	free := make(map[int32]bool, len(w.free))
	for _, s := range w.free {
		free[s] = true
	}
	for slot, total := range w.totals {
		if sums[slot] != total {
			t.Fatalf("slot %d: total %d, entries sum to %d", slot, total, sums[slot])
		}
		tracked := slot < len(sh.keys) && sh.keys[slot] != (Key{})
		if (free[int32(slot)] || !tracked) && total != 0 {
			t.Fatalf("untracked slot %d holds %d", slot, total)
		}
		if free[int32(slot)] == tracked || w.pos[slot] == released {
			t.Fatalf("slot %d: tracked %v, free %v, position %d", slot, tracked, free[int32(slot)], w.pos[slot])
		}
	}
	if len(w.gone) != 0 {
		t.Fatalf("%d released slots await a purge", len(w.gone))
	}
}

// TestEvictedSlotsReuseCleanly evicts under a tight MaxPairs, re-admits
// pairs into the freed slots and runs whole windows past them: after every
// document each tracked pair's count must be the serial tracker's, so an
// evicted pair's entries never reach its slot's next occupant.
func TestEvictedSlotsReuseCleanly(t *testing.T) {
	cfg := Config{Buckets: 4, Resolution: time.Hour, MaxPairs: 30}
	rng := rand.New(rand.NewSource(5))
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			c := cfg
			c.Shards = shards
			ref, tr := NewTracker(cfg), NewShardedTracker(c)
			var evicted, live int
			tr.SetOnEvict(func(_ Key, n float64) {
				evicted++
				if n > 0 {
					live++
				}
			})
			at := shT0
			for i := 0; i < 3000; i++ {
				if i%150 == 149 {
					at = at.Add(time.Hour) // 20 hours: five windows
				}
				// A hot vocabulary whose pairs keep coming back after
				// eviction, and now and then a late document.
				d := at
				if rng.Intn(10) == 0 {
					d = d.Add(-time.Duration(rng.Intn(6)) * time.Hour)
				}
				tags := []string{fmt.Sprintf("h%d", rng.Intn(12)), fmt.Sprintf("h%d", rng.Intn(12)), fmt.Sprintf("c%d", rng.Intn(40))}
				ref.Observe(d, tags, nil)
				tr.observe(d, tags, nil)
				if i%7 == 0 {
					snapshotAll(tr)
				}
				for _, k := range ref.Keys() {
					if g, w := tr.Cooccurrence(k), ref.Cooccurrence(k); g != w {
						t.Fatalf("doc %d: %v counts %v, serial tracker %v", i, k, g, w)
					}
				}
				for _, sh := range tr.shards {
					checkWheel(t, sh)
				}
			}
			if live == 0 {
				t.Fatalf("%d evictions, none with a live window: the purge is not exercised", evicted)
			}
			slots := 0
			for _, sh := range tr.shards {
				slots += len(sh.wheel.totals)
			}
			if slots >= 3000 {
				t.Fatalf("%d slots for %d documents: no slot was reused", slots, 3000)
			}
		})
	}
}

// TestLateListsStayBounded holds the clock still and feeds interleaved
// late documents into one in-window bucket, so no late increment finds its
// slot's entry on top of the list: compaction must keep the list within
// twice its distinct slots, and the counts exact.
func TestLateListsStayBounded(t *testing.T) {
	cfg := Config{Buckets: 48, Resolution: time.Hour}
	ref, tr := NewTracker(cfg), NewShardedTracker(cfg)
	rng := rand.New(rand.NewSource(3))
	ahead := shT0.Add(40 * time.Hour) // one early document sets the clock
	ref.Observe(ahead, []string{"x", "y"}, nil)
	tr.observe(ahead, []string{"x", "y"}, nil)
	late := shT0.Add(10 * time.Hour)
	const docs = 20000
	for i := 0; i < docs; i++ {
		tags := []string{fmt.Sprintf("t%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(30))}
		ref.Observe(late.Add(time.Duration(i)*time.Millisecond), tags, nil)
		tr.observe(late.Add(time.Duration(i)*time.Millisecond), tags, nil)
	}
	sh := tr.shards[0]
	checkWheel(t, sh)
	l := sh.wheel.lists[sh.wheel.listOf(late.UnixNano()/int64(time.Hour))]
	if tracked := tr.ActivePairs(); len(l) > 2*tracked+2*minMark {
		t.Fatalf("late bucket's list holds %d entries for %d tracked pairs after %d documents", len(l), tracked, docs)
	}
	for _, k := range ref.Keys() {
		if g, w := tr.Cooccurrence(k), ref.Cooccurrence(k); g != w {
			t.Fatalf("%v counts %v, serial tracker %v", k, g, w)
		}
	}
}

// TestWheelHoldsWideCounts fills most buckets of a window with counts
// above an entry's 2^32−1, by sketch-sized weights and by increments on a
// saturated entry: the counts stay exact, export and restore round-trip
// to the same state, and they expire to an empty window.
func TestWheelHoldsWideCounts(t *testing.T) {
	const buckets = 8
	cfg := Config{Buckets: buckets, Resolution: time.Hour, Shards: 2}
	tr := NewShardedTracker(cfg)
	k := MakeKey("wide", "pair")
	tags := []string{"wide", "pair"}
	var want float64
	for h := 0; h < buckets-1; h++ {
		at := shT0.Add(time.Duration(h) * time.Hour)
		tr.observe(at, tags, nil)
		sh := tr.shards[k.Shard(len(tr.shards))]
		slot, _ := sh.table.get(k.packed)
		wide := uint64(h+1)<<32 + 5
		sh.wheel.add(slot, sh.wheel.head, wide)
		tr.observe(at, tags, nil) // lands on the saturated entry
		want += float64(wide + 2)
	}
	if got := tr.Cooccurrence(k); got != want {
		t.Fatalf("count %v, want %v", got, want)
	}
	for _, sh := range tr.shards {
		checkWheel(t, sh)
	}
	st := tr.ExportState()
	if len(st.Pairs) != 1 || len(st.Pairs[0].Window.Buckets) != buckets-1 || st.Pairs[0].Window.Total != want {
		t.Fatalf("export %+v", st)
	}
	for p, b := range st.Pairs[0].Window.Buckets {
		if wb := float64(uint64(p+1)<<32 + 7); b.Val != wb {
			t.Fatalf("bucket %d exports %v, want %v", p, b.Val, wb)
		}
	}
	back := NewShardedTracker(Config{Buckets: buckets, Resolution: time.Hour, Shards: 3})
	if err := back.RestoreState(st); err != nil {
		t.Fatalf("restore of a healthy export: %v", err)
	}
	if got := back.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip exports %+v, want %+v", got, st)
	}
	for _, sh := range back.shards {
		checkWheel(t, sh)
	}
	// A window on, every wide bucket has expired with its spill.
	back.observe(shT0.Add(2*buckets*time.Hour), []string{"x", "y"}, nil)
	if got := back.Cooccurrence(k); got != 0 {
		t.Fatalf("count %v after the window passed, want 0", got)
	}
	for _, sh := range back.shards {
		if len(sh.wheel.spill) != 0 {
			t.Fatalf("spills outlive their buckets: %v", sh.wheel.spill)
		}
	}
}

// TestRestoreRefusesCorruptWindows: RestoreState refuses every window
// PairWindow.Check refuses, with an error and no panic.
func TestRestoreRefusesCorruptWindows(t *testing.T) {
	now := shT0.UnixNano()
	head := now / int64(time.Hour)
	good := PairWindow{Buckets: []Bucket{{Pos: 2, Val: 3}}, Head: head, HeadSet: true, Total: 3}
	for name, w := range map[string]PairWindow{
		"negative":     {Buckets: []Bucket{{Pos: 2, Val: -3}}, Head: head, HeadSet: true, Total: -3},
		"nan":          {Buckets: []Bucket{{Pos: 2, Val: math.NaN()}}, Head: head, HeadSet: true, Total: 3},
		"fraction":     {Buckets: []Bucket{{Pos: 2, Val: 2.5}}, Head: head, HeadSet: true, Total: 2.5},
		"huge":         {Buckets: []Bucket{{Pos: 2, Val: 2 * maxExact}}, Head: head, HeadSet: true, Total: 2 * maxExact},
		"total":        {Buckets: good.Buckets, Head: head, HeadSet: true, Total: 4},
		"future head":  {Buckets: good.Buckets, Head: head + 1, HeadSet: true, Total: 3},
		"unset head":   {Buckets: good.Buckets, Total: 3},
		"out of range": {Buckets: []Bucket{{Pos: 4, Val: 3}}, Head: head, HeadSet: true, Total: 3},
		"out of order": {Buckets: []Bucket{{Pos: 2, Val: 1}, {Pos: 1, Val: 1}}, Head: head, HeadSet: true, Total: 2},
	} {
		tr := NewShardedTracker(Config{Buckets: 4, Resolution: time.Hour})
		st := ShardedTrackerState{NowNano: now, Pairs: []PairState{{Key: MakeKey("a", "b"), Window: w}}}
		if err := tr.RestoreState(st); err == nil {
			t.Errorf("%s: restore accepted %+v", name, w)
		}
	}
	tr := NewShardedTracker(Config{Buckets: 4, Resolution: time.Hour})
	if err := tr.RestoreState(ShardedTrackerState{NowNano: now, Pairs: []PairState{{Key: MakeKey("a", "b"), Window: good}}}); err != nil {
		t.Fatalf("good window: %v", err)
	}
}

// TestObserveSnapshotAllocs pins the pair path's steady state: once a full
// window has passed, ObserveIDs — each clock lift expiring a bucket — and
// the tick's AppendSnapshot allocate nothing.
func TestObserveSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const buckets = 6
	tr := NewShardedTracker(Config{Buckets: buckets, Resolution: time.Hour, Shards: 4})
	rng := rand.New(rand.NewSource(9))
	docs := make([]Doc, 400)
	for i := range docs {
		ids := make([]uint32, 0, 6)
		for len(ids) < cap(ids) {
			id := uint32(1 + rng.Intn(60))
			if !containsID(ids, id) {
				ids = append(ids, id)
			}
		}
		docs[i].IDs = ids
	}
	bufs := make([][]PairCount, tr.Shards())
	at := shT0
	hour := func() {
		at = at.Add(time.Hour)
		for i := range docs {
			docs[i].Time = at.Add(time.Duration(i) * time.Second)
			if i%10 == 0 {
				docs[i].Time = at.Add(-2 * time.Hour) // late, inside the window
			}
		}
		for lo := 0; lo < len(docs); lo += 50 {
			tr.ObserveIDs(docs[lo:lo+50], nil)
		}
		for s := range bufs {
			bufs[s] = tr.AppendSnapshot(s, bufs[s][:0])
		}
	}
	for i := 0; i < 2*buckets; i++ {
		hour()
	}
	if got := testing.AllocsPerRun(5, hour); got != 0 {
		t.Fatalf("an hour of ingest and a tick allocate %v times, want 0", got)
	}
}

func containsID(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
