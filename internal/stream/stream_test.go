package stream

import (
	"context"
	"reflect"
	"testing"
	"time"
)

var base = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func mkItem(id string, tags ...string) *Item {
	return &Item{Time: base, DocID: id, Tags: tags}
}

func TestItemClone(t *testing.T) {
	it := &Item{Time: base, DocID: "d1", Tags: []string{"a"}, Entities: []string{"e"}}
	cp := it.Clone()
	cp.Tags[0] = "changed"
	cp.Entities[0] = "changed"
	if it.Tags[0] != "a" || it.Entities[0] != "e" {
		t.Error("Clone shares backing arrays with original")
	}
}

func TestItemAllTags(t *testing.T) {
	it := &Item{Tags: []string{"a", "b", "a"}, Entities: []string{"b", "c"}}
	got := it.AllTags()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AllTags = %v, want %v", got, want)
	}
}

func collect(items *[]*Item) Sink {
	return SinkFunc(func(it *Item) { *items = append(*items, it) })
}

// identity is the pass-through stage of the Runner tests.
func identity() Operator {
	return NewMap(func(it *Item) *Item { return it })
}

func TestFanOutOrder(t *testing.T) {
	var got []string
	f := &FanOut{}
	f.Subscribe(SinkFunc(func(it *Item) { got = append(got, "first:"+it.DocID) }))
	f.Subscribe(SinkFunc(func(it *Item) { got = append(got, "second:"+it.DocID) }))
	f.Emit(mkItem("x"))
	want := []string{"first:x", "second:x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fan-out order = %v, want %v", got, want)
	}
	if len(f.sinks) != 2 {
		t.Errorf("%d sinks attached, want 2", len(f.sinks))
	}
}

func TestMapTransformAndDrop(t *testing.T) {
	var out []*Item
	m := NewMap(func(it *Item) *Item {
		if it.DocID == "drop" {
			return nil
		}
		cp := it.Clone()
		cp.Tags = append(cp.Tags, "extra")
		return cp
	})
	m.Subscribe(collect(&out))
	orig := mkItem("keep", "t")
	m.Consume(orig)
	m.Consume(mkItem("drop"))
	if len(out) != 1 {
		t.Fatalf("map emitted %d items, want 1", len(out))
	}
	if !reflect.DeepEqual(out[0].Tags, []string{"t", "extra"}) {
		t.Errorf("mapped tags = %v", out[0].Tags)
	}
	if len(orig.Tags) != 1 {
		t.Error("map mutated the original item")
	}
}

type flushSink struct {
	consume func(*Item)
	flush   func()
}

func (f *flushSink) Consume(it *Item) { f.consume(it) }
func (f *flushSink) Flush()           { f.flush() }

func TestSliceSource(t *testing.T) {
	items := SliceSource{mkItem("1"), mkItem("2")}
	var got []string
	err := items.Run(context.Background(), func(it *Item) { got = append(got, it.DocID) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("got %v", got)
	}
}

func TestSliceSourceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := SliceSource{mkItem("1")}
	err := items.Run(ctx, func(it *Item) {})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerSharesCommonPrefix(t *testing.T) {
	newCounts := map[string]int{}
	stage := func(key string) Stage {
		return Shared(key, func() Operator {
			newCounts[key]++
			return identity()
		})
	}
	var out1, out2 []*Item
	r := NewRunner(SliceSource{mkItem("a"), mkItem("b")})
	r.Add(&Plan{
		Name:   "p1",
		Stages: []Stage{stage("source-norm"), stage("entity")},
		Sink:   collect(&out1),
	})
	r.Add(&Plan{
		Name:   "p2",
		Stages: []Stage{stage("source-norm"), stage("entity")},
		Sink:   collect(&out2),
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if newCounts["source-norm"] != 1 || newCounts["entity"] != 1 {
		t.Errorf("shared stages constructed %v times, want once each", newCounts)
	}
	if len(out1) != 2 || len(out2) != 2 {
		t.Errorf("plan outputs %d/%d, want 2/2", len(out1), len(out2))
	}
}

func TestRunnerDivergentPrefixNotShared(t *testing.T) {
	newCounts := map[string]int{}
	mk := func(key string) func() Operator {
		return func() Operator {
			newCounts[key]++
			return identity()
		}
	}
	var out1, out2 []*Item
	r := NewRunner(SliceSource{mkItem("a")})
	// Same downstream key "stats", but different first stages: the stats
	// instances must NOT be shared, because their inputs differ.
	r.Add(&Plan{
		Name:   "p1",
		Stages: []Stage{Shared("fa", mk("fa")), Shared("stats", mk("stats"))},
		Sink:   collect(&out1),
	})
	r.Add(&Plan{
		Name:   "p2",
		Stages: []Stage{Shared("fb", mk("fb")), Shared("stats", mk("stats"))},
		Sink:   collect(&out2),
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if newCounts["stats"] != 2 {
		t.Errorf("stats constructed %d times, want 2 (divergent prefixes)", newCounts["stats"])
	}
}

func TestRunnerPrivateStagesNeverShared(t *testing.T) {
	n := 0
	var out1, out2 []*Item
	r := NewRunner(SliceSource{mkItem("a")})
	priv := func() Stage {
		return Private(func() Operator { n++; return identity() })
	}
	r.Add(&Plan{Name: "p1", Stages: []Stage{priv()}, Sink: collect(&out1)})
	r.Add(&Plan{Name: "p2", Stages: []Stage{priv()}, Sink: collect(&out2)})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("private stages constructed %d times, want 2", n)
	}
}

func TestRunnerKeyedStageAfterPrivateIsPrivate(t *testing.T) {
	n := 0
	var out1, out2 []*Item
	mkShared := func() Stage {
		return Shared("k", func() Operator { n++; return identity() })
	}
	r := NewRunner(SliceSource{mkItem("a")})
	r.Add(&Plan{
		Name:   "p1",
		Stages: []Stage{Private(identity), mkShared()},
		Sink:   collect(&out1),
	})
	r.Add(&Plan{
		Name:   "p2",
		Stages: []Stage{Private(identity), mkShared()},
		Sink:   collect(&out2),
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("keyed stage below private prefix constructed %d times, want 2", n)
	}
}

func TestRunnerErrors(t *testing.T) {
	r := NewRunner(SliceSource{})
	if err := r.Run(context.Background()); err == nil {
		t.Error("expected error for runner with no plans")
	}
	r2 := NewRunner(SliceSource{}).Add(&Plan{Name: "p"})
	if err := r2.Run(context.Background()); err == nil {
		t.Error("expected error for plan without sink")
	}
	r3 := NewRunner(SliceSource{}).Add(&Plan{
		Name:   "p",
		Stages: []Stage{{Key: "x"}},
		Sink:   SinkFunc(func(*Item) {}),
	})
	if err := r3.Run(context.Background()); err == nil {
		t.Error("expected error for stage with nil constructor")
	}
}

func TestRunnerFlushReachesSinks(t *testing.T) {
	flushed := 0
	sink := &flushSink{consume: func(*Item) {}, flush: func() { flushed++ }}
	r := NewRunner(SliceSource{mkItem("a")})
	r.Add(&Plan{
		Name:   "p",
		Stages: []Stage{Shared("t", identity)},
		Sink:   sink,
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Errorf("sink flushed %d times, want 1", flushed)
	}
}

func BenchmarkFanOutEmit(b *testing.B) {
	f := &FanOut{}
	for i := 0; i < 4; i++ {
		f.Subscribe(SinkFunc(func(*Item) {}))
	}
	it := mkItem("d", "a", "b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Emit(it)
	}
}
