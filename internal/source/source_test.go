package source

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"enblogue/internal/pairs"
	"enblogue/internal/stream"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func TestDocumentItemRoundTrip(t *testing.T) {
	d := Document{
		Time: t0, ID: "d1",
		Tags: []string{"a", "b"}, Entities: []string{"e"},
		Text: "hello", Source: "test",
	}
	it := d.Item()
	back := FromItem(it)
	if !reflect.DeepEqual(d, back) {
		t.Errorf("round trip: %+v != %+v", d, back)
	}
	// Item owns copies.
	it.Tags[0] = "mutated"
	if d.Tags[0] != "a" {
		t.Error("Item shares tag slice with document")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	docs := []Document{
		{Time: t0, ID: "a", Tags: []string{"x"}},
		{Time: t0.Add(time.Hour), ID: "b", Tags: []string{"y", "z"}, Text: "τ"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, docs); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadJSONL(&buf, true)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadJSONL: %v skipped=%d", err, skipped)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].Text != "τ" {
		t.Errorf("round trip = %+v", got)
	}
	if !got[0].Time.Equal(t0) {
		t.Errorf("time round trip = %v", got[0].Time)
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	in := `{"id":"ok1","time":"2011-06-12T00:00:00Z"}
not json at all
{"id":"ok2","time":"2011-06-12T01:00:00Z"}
`
	docs, skipped, err := ReadJSONL(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || skipped != 1 {
		t.Errorf("lenient read: %d docs, %d skipped", len(docs), skipped)
	}
	_, _, err = ReadJSONL(strings.NewReader(in), true)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("strict read error = %v, want line 2 mention", err)
	}
}

func TestSortDocs(t *testing.T) {
	docs := []Document{
		{Time: t0.Add(time.Hour), ID: "b"},
		{Time: t0, ID: "z"},
		{Time: t0, ID: "a"},
	}
	SortDocs(docs)
	ids := []string{docs[0].ID, docs[1].ID, docs[2].ID}
	if !reflect.DeepEqual(ids, []string{"a", "z", "b"}) {
		t.Errorf("sorted = %v", ids)
	}
}

func TestReplayerFastPath(t *testing.T) {
	docs := []Document{
		{Time: t0, ID: "1"},
		{Time: t0.Add(time.Hour), ID: "2"},
	}
	r := &Replayer{Docs: docs}
	var got []string
	start := time.Now()
	err := r.Run(context.Background(), func(it *stream.Item) { got = append(got, it.DocID) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("replayed = %v", got)
	}
	if time.Since(start) > time.Second {
		t.Error("fast path slept")
	}
}

func TestReplayerTimeLapseSleeps(t *testing.T) {
	docs := []Document{
		{Time: t0, ID: "1"},
		{Time: t0.Add(time.Second), ID: "2"},
	}
	r := &Replayer{Docs: docs, Speedup: 20} // 1s gap → 50ms sleep
	start := time.Now()
	if err := r.Run(context.Background(), func(*stream.Item) {}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("time-lapse replay too fast: %v", el)
	}
}

func TestReplayerMaxSleepCap(t *testing.T) {
	docs := []Document{
		{Time: t0, ID: "1"},
		{Time: t0.Add(240 * time.Hour), ID: "2"}, // ten-day gap
	}
	r := &Replayer{Docs: docs, Speedup: 1e6, MaxSleep: 50 * time.Millisecond}
	start := time.Now()
	if err := r.Run(context.Background(), func(*stream.Item) {}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("MaxSleep cap not applied: %v", el)
	}
}

func TestReplayerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Replayer{Docs: []Document{{Time: t0, ID: "1"}}}
	if err := r.Run(ctx, func(*stream.Item) {}); err != context.Canceled {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestEventHelpers(t *testing.T) {
	e := Event{
		Name: "x", Tags: [2]string{"b", "a"},
		Start: t0, Duration: time.Hour,
	}
	if e.Pair() != pairs.MakeKey("a", "b") {
		t.Errorf("Pair = %v", e.Pair())
	}
}

// active reports whether t falls inside the event's span.
func active(e Event, t time.Time) bool {
	return !t.Before(e.Start) && t.Before(e.Start.Add(e.Duration))
}

func TestGenerateArchiveDeterministic(t *testing.T) {
	cfg := ArchiveConfig{Seed: 7, Days: 3, DocsPerDay: 50}
	a := GenerateArchive(cfg)
	b := GenerateArchive(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different archives")
	}
	c := GenerateArchive(ArchiveConfig{Seed: 8, Days: 3, DocsPerDay: 50})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical archives")
	}
}

func TestGenerateArchiveShape(t *testing.T) {
	start := t0
	events := HistoricEvents(start)
	docs := GenerateArchive(ArchiveConfig{
		Seed: 1, Start: start, Days: 25, DocsPerDay: 100, Events: events,
	})
	if len(docs) < 2500 {
		t.Fatalf("archive has %d docs, want >= 2500", len(docs))
	}
	// Sorted by time.
	if !sort.SliceIsSorted(docs, func(i, j int) bool {
		return docs[i].Time.Before(docs[j].Time)
	}) {
		t.Error("archive not time-sorted")
	}
	// All docs inside period, tagged, with category among defaults or event tags.
	cats := map[string]bool{}
	for _, c := range DefaultCategories {
		cats[c] = true
	}
	eventDocs := 0
	for _, d := range docs {
		if d.Time.Before(start) || d.Time.After(start.Add(26*24*time.Hour)) {
			t.Fatalf("doc %s outside period: %v", d.ID, d.Time)
		}
		if len(d.Tags) == 0 {
			t.Fatalf("doc %s has no tags", d.ID)
		}
		if strings.HasPrefix(d.ID, "evt") {
			eventDocs++
		}
	}
	// Expect roughly Σ rate·hours event docs: 6*72 + 5*96 + 8*48 = 1296.
	if eventDocs < 1000 || eventDocs > 1600 {
		t.Errorf("event docs = %d, want ≈1296", eventDocs)
	}
	// During the hurricane event, the pair must co-occur far more often
	// than before it.
	hur := events[0]
	coocDuring, coocBefore := 0, 0
	for _, d := range docs {
		has := func(tag string) bool {
			for _, t := range d.Tags {
				if t == tag {
					return true
				}
			}
			return false
		}
		if has(hur.Tags[0]) && has(hur.Tags[1]) {
			if active(hur, d.Time) {
				coocDuring++
			} else if d.Time.Before(hur.Start) {
				coocBefore++
			}
		}
	}
	if coocDuring < 100 {
		t.Errorf("hurricane co-occurrence during event = %d, want >= 100", coocDuring)
	}
	if coocBefore != 0 {
		t.Errorf("hurricane co-occurrence before event = %d, want 0", coocBefore)
	}
}

func TestArchiveZipfSkew(t *testing.T) {
	docs := GenerateArchive(ArchiveConfig{Seed: 3, Days: 10, DocsPerDay: 300})
	counts := map[string]int{}
	for _, d := range docs {
		for _, tag := range d.Tags {
			counts[tag]++
		}
	}
	// The rank-0 descriptor of each category must dominate its rank-50.
	top := counts[Descriptor("politics", 0)]
	mid := counts[Descriptor("politics", 50)]
	if top == 0 || top < 5*mid {
		t.Errorf("descriptor skew weak: top=%d mid=%d", top, mid)
	}
}

func TestGenerateTweets(t *testing.T) {
	span := 8 * time.Hour
	cfg := TweetConfig{
		Seed: 5, Start: t0, Span: span, TweetsPerMinute: 10,
		Happenings: SIGMODAthensScenario(span),
	}
	docs := GenerateTweets(cfg)
	if len(docs) < int(10*span.Minutes()) {
		t.Fatalf("tweets = %d, want >= background volume", len(docs))
	}
	if !sort.SliceIsSorted(docs, func(i, j int) bool {
		return docs[i].Time.Before(docs[j].Time)
	}) {
		t.Error("tweets not sorted")
	}
	// The SIGMOD/Athens pair appears only during its scripted window.
	events := cfg.Events()
	var sigmod *Event
	for i := range events {
		if events[i].Name == "sigmod-athens" {
			sigmod = &events[i]
		}
	}
	if sigmod == nil {
		t.Fatal("scenario missing sigmod-athens")
	}
	n := 0
	for _, d := range docs {
		both := 0
		for _, tag := range d.Tags {
			if tag == "sigmod" || tag == "athens" {
				both++
			}
		}
		if both == 2 {
			n++
			if !active(*sigmod, d.Time) {
				t.Fatalf("sigmod doc outside window: %v", d.Time)
			}
		}
	}
	want := int(sigmod.DocsPerHour * sigmod.Duration.Hours())
	if n != want {
		t.Errorf("sigmod docs = %d, want %d", n, want)
	}
}

func TestGenerateFeed(t *testing.T) {
	cfg := FeedConfig{Seed: 2, Start: t0, Span: 12 * time.Hour,
		Happenings: SIGMODAthensScenario(12 * time.Hour)}
	docs := GenerateFeed(cfg)
	if len(docs) == 0 {
		t.Fatal("no feed docs")
	}
	srcs := map[string]bool{}
	for _, d := range docs {
		if !strings.HasPrefix(d.Source, "rss:") {
			t.Fatalf("source = %q", d.Source)
		}
		srcs[d.Source] = true
		if len(d.Tags) == 0 {
			t.Fatal("feed doc without tags")
		}
	}
	if len(srcs) < 3 {
		t.Errorf("feeds seen = %v, want 3+", srcs)
	}
}

func TestMerge(t *testing.T) {
	a := []Document{{Time: t0, ID: "a"}, {Time: t0.Add(2 * time.Hour), ID: "c"}}
	b := []Document{{Time: t0.Add(time.Hour), ID: "b"}}
	m := Merge(a, b)
	ids := []string{m[0].ID, m[1].ID, m[2].ID}
	if !reflect.DeepEqual(ids, []string{"a", "b", "c"}) {
		t.Errorf("merged = %v", ids)
	}
	if Merge() != nil && len(Merge()) != 0 {
		t.Error("empty merge")
	}
}

func BenchmarkGenerateArchive(b *testing.B) {
	cfg := ArchiveConfig{Seed: 1, Days: 30, DocsPerDay: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateArchive(cfg)
	}
}
