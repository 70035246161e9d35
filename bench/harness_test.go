package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 4, 10, 2, 9, 3, 8, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := median(xs); got != 5.5 {
		t.Fatalf("median = %v, want 5.5", got)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q3 != 40 {
		t.Fatalf("quartiles of three = %v, %v; want 10, 40", q1, q3)
	}
	if got := spread([]float64{100, 100, 100, 100}); got != 0 {
		t.Fatalf("spread of a constant = %v", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(sorted, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
}

func TestOpenLoopCountsLatenessFromDueTime(t *testing.T) {
	// A fake clock: sleeping and sending advance it; nothing else does.
	now := time.Unix(1000, 0)
	period := 10 * time.Millisecond
	loop := openLoop{
		Period: period,
		now:    func() time.Time { return now },
		sleep:  func(d time.Duration) { now = now.Add(d + spinWindow) }, // wakes exactly on time
	}
	start := now.Add(period)
	var sentAt, dues []time.Time
	late := loop.run(start, 7, func(i int, due time.Time) {
		sentAt = append(sentAt, now)
		dues = append(dues, due)
		cost := time.Millisecond
		if i == 2 {
			cost = 35 * time.Millisecond // one send stalls for three and a half periods
		}
		now = now.Add(cost)
	})
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Fatalf("send %d due %v, want %v: the schedule must not slip with the stall", i, due, want)
		}
	}
	// Sends 3, 4 and 5 were due while send 2 was stuck: they go out back to
	// back and their lateness — what a user waiting on them would see — is
	// measured from when they were due, not from when the stall ended.
	want := []time.Duration{0, 0, 0, 25 * time.Millisecond, 16 * time.Millisecond, 7 * time.Millisecond, 0}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("late[%d] = %v, want %v (sent at %v)", i, late[i], want[i], sentAt[i].Sub(start))
		}
	}
}

func TestSSEReaderFrames(t *testing.T) {
	stream := ": comment\n" +
		"data: {\"a\":1}\n\n" +
		"event: tick\nid: 7\ndata: first\ndata: second\n\n" +
		"retry: 10\n\n" + // an event without data is skipped
		"data:no-space\r\n\r\n"
	rd := newSSEReader(strings.NewReader(stream))
	for _, want := range []string{`{"a":1}`, "first\nsecond", "no-space"} {
		got, err := rd.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if string(got) != want {
			t.Fatalf("frame = %q, want %q", got, want)
		}
	}
	if _, err := rd.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	// A frame larger than the scanner's initial buffer still arrives whole.
	big := strings.Repeat("x", 200<<10)
	rd = newSSEReader(strings.NewReader("data: " + big + "\n\n"))
	if got, err := rd.next(); err != nil || len(got) != len(big) {
		t.Fatalf("big frame: %d bytes, %v", len(got), err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "consume", Start: 10, End: 40, Count: 30},
		{ID: 2, Parent: 0, Name: "tick", Start: 40, End: 70, Count: 1},
		{ID: 3, Parent: 2, Name: "evaluate", Start: 45, End: 65},
		{ID: 4, Parent: 0, Name: "consume", Start: 60, End: 90, Count: 20}, // overlaps the tick by 10
		{ID: 5, Parent: 0, Name: "late", Start: 95, End: 120},              // runs past its parent
	}
	got := totals(spans)
	// Children cover [10,40) ∪ [40,70) ∪ [60,90) ∪ [95,100) = 85 of the pass.
	if s := got["pass"].Self; s != 15 {
		t.Errorf("pass self = %d, want 15", s)
	}
	if s := got["tick"]; s.Total != 30 || s.Self != 10 {
		t.Errorf("tick = %+v, want total 30 self 10", s)
	}
	if s := got["consume"]; s.Spans != 2 || s.Count != 50 || s.Total != 60 || s.Self != 60 {
		t.Errorf("consume = %+v", s)
	}
	if d := durations(spans, "consume"); len(d) != 2 || d[0] != 30 || d[1] != 30 {
		t.Errorf("durations = %v", d)
	}
}

// smallWorkload is a 2k-document stream for the harness tests.
func smallWorkload() *workload {
	return &workload{
		Name: "small",
		Stream: streamSpec{
			Tags: 300, ZipfS: 1.3, MeanTags: 3,
			TickEvery: 10 * time.Minute, DocsPerTick: 40, PassTicks: 12,
			Happenings: 1, HappeningDocs: 40, SeedCount: 20,
		},
		Warm: 1,
	}
}

func runSmall(t *testing.T, seed int64, feed func(*execution) func([]*stream.Item)) *execution {
	t.Helper()
	w := smallWorkload()
	x := newExecution(w, newGenerator(w.Stream, seed), w.engineConfig(""), nil)
	defer x.close()
	for i := 0; i < 4; i++ {
		x.feedPass(feed(x))
	}
	if err := x.settle(); err != nil {
		t.Fatal(err)
	}
	if got := x.eng.DocsProcessed(); got != x.docs {
		t.Fatalf("engine processed %d of %d documents", got, x.docs)
	}
	return x
}

func TestSplitAtTickBoundariesKeepsRankingsBitIdentical(t *testing.T) {
	whole := runSmall(t, 3, func(x *execution) func([]*stream.Item) { return x.consumeBatches })
	tr := newTracer(1 << 12)
	last := -1
	split := runSmall(t, 3, func(x *execution) func([]*stream.Item) {
		return x.tracedFeed(tr, -1, &last, func(int) bool { return false })
	})
	if whole.log.len() == 0 || whole.docs < 2000 {
		t.Fatalf("stream too small: %d rankings over %d documents", whole.log.len(), whole.docs)
	}
	if a, b := whole.log.hash(time.Time{}), split.log.hash(time.Time{}); a != b {
		t.Fatalf("split %s != unsplit %s", b, a)
	}
	// Every tick became its own one-document batch, and nothing else did.
	got := totals(tr.spans)
	if ticks := got["core.tick"].Spans; ticks != whole.expect-1 { // all but the closing Flush tick
		t.Fatalf("%d tick segments for %d grid ticks", ticks, whole.expect-1)
	}
	if got["core.consume"].Count+got["core.tick"].Count != whole.docs {
		t.Fatalf("segments cover %d of %d documents", got["core.consume"].Count+got["core.tick"].Count, whole.docs)
	}
	// The layer replay publishes the same rankings from the same stream.
	w := smallWorkload()
	rp := newReplay(newGenerator(w.Stream, 3), whole.eng.Config())
	rp.step(w, 4)
	rp.flush()
	if a, b := whole.log.hash(time.Time{}), rp.log.hash(time.Time{}); a != b {
		t.Fatalf("replay %s != engine %s", b, a)
	}
	// And every scripted happening is found, one tick after it starts.
	det := whole.log.detect(whole.happenings, w.Stream.TickEvery)
	if len(det.Missed) > 0 || mean(det.Lags) != 1 {
		t.Fatalf("detection: missed %v, lags %v", det.Missed, det.Lags)
	}
}

func TestSplitterSegments(t *testing.T) {
	w := smallWorkload()
	g := newGenerator(w.Stream, 1)
	items, _ := g.pass(0)
	clock := tickClock{Every: w.Stream.TickEvery}
	segs := splitAtTicks(items, &clock, 16, nil)
	covered, ticks := 0, 0
	for _, sg := range segs {
		if sg.Lo != covered {
			t.Fatalf("gap before segment %+v", sg)
		}
		covered = sg.Hi
		switch {
		case sg.Tick:
			ticks++
			if sg.Hi-sg.Lo != 1 || items[sg.Lo].Time.Sub(streamStart)%w.Stream.TickEvery != 0 {
				t.Fatalf("tick segment %+v does not hold exactly the boundary document", sg)
			}
		case sg.Hi-sg.Lo > 16:
			t.Fatalf("run %+v longer than the cap", sg)
		}
	}
	if covered != len(items) || ticks != w.Stream.PassTicks-1 {
		t.Fatalf("covered %d of %d documents with %d ticks", covered, len(items), ticks)
	}
}

func TestGeneratorSeedDeterminismAndShape(t *testing.T) {
	w := findWorkload("serve")
	render := func(seed int64) []byte {
		g := newGenerator(w.Stream, seed)
		var out []byte
		for p := 0; p < 4; p++ {
			items, _ := g.pass(p)
			out = appendJSONL(out, items)
		}
		return out
	}
	a, again, b := render(11), render(11), render(12)
	if !bytes.Equal(a, again) {
		t.Fatal("same seed, different JSONL")
	}
	if bytes.Equal(a, b) {
		t.Fatal("different seeds, identical JSONL")
	}
	// What the server decodes is what the generator meant.
	docs, skipped, err := source.ReadJSONL(bytes.NewReader(a), true)
	g := newGenerator(w.Stream, 11)
	first, _ := g.pass(0)
	if err != nil || skipped != 0 || len(docs) < len(first) {
		t.Fatalf("decoding generated JSONL: %d docs, %d skipped, %v", len(docs), skipped, err)
	}
	for i, it := range first {
		d := docs[i]
		if !d.Time.Equal(it.Time) || d.ID != it.DocID || strings.Join(d.Tags, ",") != strings.Join(it.Tags, ",") {
			t.Fatalf("doc %d round-trips as %+v, generated %+v", i, d, *it)
		}
	}

	// Different seeds, same shape: documents per tick exactly, mean tags per
	// document and tracked pairs within 5%.
	shape := func(seed int64) (perTick, tagsPerDoc, tracked float64) {
		ww := smallWorkload()
		x := newExecution(ww, newGenerator(ww.Stream, seed), ww.engineConfig(""), nil)
		defer x.close()
		tags := 0
		for p := 0; p < 6; p++ {
			items, _ := x.gen.pass(p)
			for _, it := range items {
				tags += len(it.Tags)
			}
		}
		for p := 0; p < 6; p++ {
			x.feedPass(x.consumeBatches)
		}
		return float64(x.docs) / float64(6*ww.Stream.PassTicks), float64(tags) / float64(x.docs), float64(x.eng.ActivePairs())
	}
	t1, d1, p1 := shape(21)
	t2, d2, p2 := shape(22)
	if t1 != t2 {
		t.Errorf("docs per tick %v vs %v", t1, t2)
	}
	if math.Abs(d1-d2)/d1 > 0.05 || math.Abs(p1-p2)/p1 > 0.05 {
		t.Errorf("shape differs across seeds: tags/doc %v vs %v, tracked pairs %v vs %v", d1, d2, p1, p2)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{103, 104, 102, 103, 105}, verdictSame},
		{lower, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{lower, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{higher, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{higher, []float64{120, 121, 119, 120, 122}, verdictBetter},
		// Noisier than the bound: never reported as unchanged.
		{lower, []float64{80, 100, 120, 90, 130}, verdictUnresolved},
	} {
		if _, _, _, got := judge(c.d, steady, c.b); got != c.want {
			t.Errorf("judge(%s, %v) = %s, want %s", c.d.Better, c.b, got, c.want)
		}
	}
	// A metric that one set has no value for — the workload's runs failed
	// their checks and printed nothing — is a regression, whichever set.
	for _, c := range [][2][]float64{{steady, nil}, {nil, steady}} {
		if _, _, _, got := judge(lower, c[0], c[1]); got != verdictWorse {
			t.Errorf("judge(%v, %v) = %s, want %s", c[0], c[1], got, verdictWorse)
		}
	}
}

// TestCompareFailsOnMissingWorkload: a workload present in one set only
// must fail the comparison instead of dropping out of it.
func TestCompareFailsOnMissingWorkload(t *testing.T) {
	run := func(w string, v float64) result {
		r := result{Workload: w, Metrics: map[string]metric{}, Info: map[string]any{"hash": "h"}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		return r
	}
	both := map[string][]result{
		"ingest-wide": {run("ingest-wide", 1), run("ingest-wide", 1)},
		"serve":       {run("serve", 1), run("serve", 1)},
	}
	one := map[string][]result{"ingest-wide": both["ingest-wide"]}
	if rc := compareSets(both, both); rc != 0 {
		t.Errorf("identical sets: exit %d, want 0", rc)
	}
	if rc := compareSets(both, one); rc == 0 {
		t.Error("serve missing from set B: exit 0, want non-zero")
	}
	if rc := compareSets(one, both); rc == 0 {
		t.Error("serve missing from set A: exit 0, want non-zero")
	}
}

// TestManifestMatchesTables holds BENCHMARK.json and the metric tables
// together: the file is what the pipeline reads, the tables are what the
// program prints.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d workloads, %d end-to-end and %d per-layer metrics; the tables %d, %d, %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %+v, table %q (%d chars)", i, m.Workloads[i], w.Name, len(w.Why))
		}
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound || d.Bound > 0.25 {
			t.Errorf("end-to-end %d: manifest %+v, table %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, table %+v", i, e, d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestSameRanking guards the recovery check's comparator.
func TestSameRanking(t *testing.T) {
	w := smallWorkload()
	x := newExecution(w, newGenerator(w.Stream, 5), w.engineConfig(""), nil)
	defer x.close()
	x.feedPass(x.consumeBatches)
	a := x.eng.CurrentRanking()
	if len(a.Topics) == 0 || !sameRanking(a, a.Clone()) {
		t.Fatalf("a ranking of %d topics must equal its clone", len(a.Topics))
	}
	b := a.Clone()
	b.Topics[0].Score = math.Nextafter(b.Topics[0].Score, 2)
	if sameRanking(a, b) || sameRanking(a, core.Ranking{At: a.At}) {
		t.Fatal("a one-ULP score change and a missing topic must both differ")
	}
}

// TestCutPartsCoversEveryChunkOnce: parts are consecutive, together hold
// every chunk's work exactly once, and a part's rate is its documents over
// its time — not a mean of chunk rates.
func TestCutPartsCoversEveryChunkOnce(t *testing.T) {
	var chunks []chunkStat
	for i := 0; i < 19; i++ {
		chunks = append(chunks, chunkStat{Ns: float64(1000 + 100*i), Docs: 10, CPUNs: int64(500 + i), FirstTick: 4 * i, EndTick: 4*i + 4})
	}
	parts := cutParts(chunks, 8)
	if len(parts) != 8 {
		t.Fatalf("%d parts, want 8", len(parts))
	}
	whole := cutParts(chunks, 1)[0]
	var sum chunkStat
	for i, p := range parts {
		if want := 4 * (i * 19 / 8); p.FirstTick != want {
			t.Errorf("part %d starts at tick %d, want %d", i, p.FirstTick, want)
		}
		if i > 0 && p.FirstTick != parts[i-1].EndTick {
			t.Errorf("part %d starts at tick %d, the one before ends at %d", i, p.FirstTick, parts[i-1].EndTick)
		}
		if p.Docs < 20 {
			t.Errorf("part %d holds %d documents, want at least two chunks", i, p.Docs)
		}
		sum.Ns, sum.Docs, sum.CPUNs = sum.Ns+p.Ns, sum.Docs+p.Docs, sum.CPUNs+p.CPUNs
	}
	if sum.Ns != whole.Ns || sum.Docs != whole.Docs || sum.CPUNs != whole.CPUNs || whole.Docs != 190 {
		t.Errorf("parts sum to %+v, the region is %+v", sum, whole)
	}
	if got, want := parts[0].rate(), 20/((1000+1100)/1e9); math.Abs(got-want) > 1e-6*want {
		t.Errorf("first part's rate = %v, want %v", got, want)
	}
	// Fewer chunks than parts (a smoke run): one chunk per part.
	if got := len(cutParts(chunks[:3], 8)); got != 3 {
		t.Errorf("3 chunks cut into %d parts, want 3", got)
	}
}
