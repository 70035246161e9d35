package core

import (
	"context"
	"testing"
	"time"

	"enblogue/internal/entity"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/source"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// feedDocs pushes documents through the engine in stream order.
func feedDocs(e *Engine, docs []source.Document) {
	for i := range docs {
		e.Consume(docs[i].Item())
	}
	e.Flush()
}

// recordRankings subscribes to e with a buffer far beyond any test
// workload's tick count and drains on a goroutine. The returned stop
// function flushes the engine, detaches the subscription, joins the
// drainer, and hands back every delivered ranking in tick order.
func recordRankings(e *Engine) func() []Ranking {
	sub := e.Subscribe(context.Background(), SubBuffer(1<<16))
	var got []Ranking
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			got = append(got, r)
		}
	}()
	return func() []Ranking {
		e.Flush()
		sub.Close()
		<-done
		return got
	}
}

// testConfig returns a small fast configuration suitable for unit streams.
func testConfig() Config {
	return Config{
		WindowBuckets:    12,
		WindowResolution: time.Hour,
		TickEvery:        time.Hour,
		SeedCount:        10,
		SeedMinCount:     2,
		SeedWarmupDocs:   20,
		Predictor:        predict.KindMovingAverage,
		PredictorConfig:  predict.Config{Window: 4},
		MinCooccurrence:  2,
		TopK:             10,
	}
}

// background emits steady two-tag docs so seeds exist.
func background(start time.Time, hours, perHour int) []source.Document {
	var docs []source.Document
	id := 0
	for h := 0; h < hours; h++ {
		for i := 0; i < perHour; i++ {
			at := start.Add(time.Duration(h)*time.Hour + time.Duration(i)*time.Minute)
			tags := []string{"news", "politics"}
			if i%2 == 0 {
				tags = []string{"news", "sports"}
			}
			docs = append(docs, source.Document{
				Time: at, ID: ids("bg", &id), Tags: tags,
			})
		}
	}
	return docs
}

func ids(prefix string, n *int) string {
	*n++
	return prefix + "-" + time.Duration(*n).String()
}

func TestEngineDefaults(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.WindowBuckets != 48 || cfg.TickEvery != time.Hour ||
		cfg.SeedCount != 50 || cfg.TopK != 20 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestEngineSeedBootstrap(t *testing.T) {
	e := New(testConfig())
	docs := background(t0, 1, 30)
	for i := range docs {
		e.Consume(docs[i].Item())
	}
	if len(e.Seeds()) == 0 {
		t.Error("seed set empty after warmup docs")
	}
	if e.DocsProcessed() != int64(len(docs)) {
		t.Errorf("DocsProcessed = %d, want %d", e.DocsProcessed(), len(docs))
	}
}

func TestEngineDetectsInjectedShift(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	stop := recordRankings(e)

	docs := background(t0, 10, 30)
	// Injected event in hour 6..8: "politics" (a seed) suddenly co-occurs
	// with fresh tag "scandal".
	id := 0
	for h := 6; h < 8; h++ {
		for i := 0; i < 10; i++ {
			docs = append(docs, source.Document{
				Time: t0.Add(time.Duration(h)*time.Hour + time.Duration(i*3)*time.Minute),
				ID:   ids("evt", &id),
				Tags: []string{"politics", "scandal"},
			})
		}
	}
	source.SortDocs(docs)
	feedDocs(e, docs)

	rankings := stop()
	if len(rankings) == 0 {
		t.Fatal("no rankings emitted")
	}
	want := pairs.MakeKey("politics", "scandal")
	found := false
	var firstAt time.Time
	for _, r := range rankings {
		for i, topic := range r.Topics {
			if topic.Pair == want && i < 3 {
				found = true
				if firstAt.IsZero() {
					firstAt = r.At
				}
			}
		}
	}
	if !found {
		t.Fatalf("injected pair never in top-3; last ranking: %+v",
			rankings[len(rankings)-1].Topics)
	}
	// Detection should come within ~2h of event start (hour 6).
	if lag := firstAt.Sub(t0.Add(6 * time.Hour)); lag > 2*time.Hour {
		t.Errorf("detection lag = %v, want <= 2h", lag)
	}
}

func TestEngineSteadyPairsScoreLow(t *testing.T) {
	e := New(testConfig())
	feedDocs(e, background(t0, 12, 30))
	r := e.CurrentRanking()
	// The steady background pairs may appear (warm-up transient) but their
	// scores must have decayed low by stream end.
	for _, topic := range r.Topics {
		if topic.Score > 0.3 {
			t.Errorf("steady pair %v scored %v, want < 0.3", topic.Pair, topic.Score)
		}
	}
}

func TestEngineRankingIDsAndOrder(t *testing.T) {
	e := New(testConfig())
	docs := background(t0, 8, 30)
	id := 0
	for i := 0; i < 12; i++ {
		docs = append(docs, source.Document{
			Time: t0.Add(5*time.Hour + time.Duration(i*5)*time.Minute),
			ID:   ids("e", &id),
			Tags: []string{"news", "eruption"},
		})
	}
	source.SortDocs(docs)
	feedDocs(e, docs)
	r := e.CurrentRanking()
	if len(r.Topics) == 0 {
		t.Fatal("empty ranking")
	}
	ids := r.IDs()
	if len(ids) != len(r.Topics) {
		t.Fatal("IDs length mismatch")
	}
	for i := 1; i < len(r.Topics); i++ {
		if r.Topics[i].Score > r.Topics[i-1].Score {
			t.Errorf("ranking not descending at %d", i)
		}
	}
}

func TestEngineTickFastForwardOnGap(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	stop := recordRankings(e)
	e.Consume(&stream.Item{Time: t0, DocID: "a", Tags: []string{"x", "y"}})
	// A year-long gap must not fire thousands of hourly ticks.
	e.Consume(&stream.Item{Time: t0.Add(365 * 24 * time.Hour), DocID: "b", Tags: []string{"x", "y"}})
	if ticks := len(stop()); ticks > 5 {
		t.Errorf("gap fired %d ticks, want fast-forward", ticks)
	}
}

func TestEngineNilItem(t *testing.T) {
	e := New(testConfig())
	e.Consume(nil) // must not panic
	if e.DocsProcessed() != 0 {
		t.Error("nil item counted")
	}
}

func TestEngineWithEntities(t *testing.T) {
	g, o := entity.Sample()
	cfg := testConfig()
	cfg.UseEntities = true
	cfg.Tagger = entity.NewTagger(g, o)
	cfg.SeedWarmupDocs = 10
	cfg.SeedCount = 20
	e := New(cfg)

	var docs []source.Document
	id := 0
	// Background: generic chatter mentioning Iceland steadily.
	for h := 0; h < 10; h++ {
		for i := 0; i < 12; i++ {
			docs = append(docs, source.Document{
				Time: t0.Add(time.Duration(h)*time.Hour + time.Duration(i*5)*time.Minute),
				ID:   ids("t", &id),
				Tags: []string{"travel"},
				Text: "visiting Iceland this summer",
			})
		}
	}
	// Event: volcano entity suddenly co-mentioned with travel tag.
	for i := 0; i < 10; i++ {
		docs = append(docs, source.Document{
			Time: t0.Add(7*time.Hour + time.Duration(i*6)*time.Minute),
			ID:   ids("v", &id),
			Tags: []string{"travel"},
			Text: "Eyjafjallajokull eruption disrupts travel across Iceland",
		})
	}
	source.SortDocs(docs)
	feedDocs(e, docs)
	r := e.CurrentRanking()
	found := false
	for _, topic := range r.Topics {
		if topic.Pair.Contains("eyjafjallajökull") {
			found = true
		}
	}
	if !found {
		t.Errorf("entity-based topic missing from ranking: %+v", r.Topics)
	}
}

func TestEngineAsPlanSink(t *testing.T) {
	// The engine must work as a sink in a multi-plan runner with a shared
	// prefix — two engines with different measures over one source.
	e1 := New(testConfig())
	cfg2 := testConfig()
	cfg2.Measure = pairs.Cosine
	e2 := New(cfg2)

	docs := background(t0, 6, 30)
	items := make(stream.SliceSource, len(docs))
	for i := range docs {
		items[i] = docs[i].Item()
	}
	identity := stream.Shared("identity", func() stream.Operator {
		return stream.NewMap(func(it *stream.Item) *stream.Item { return it })
	})
	r := stream.NewRunner(items)
	r.Add(&stream.Plan{Name: "jaccard", Stages: []stream.Stage{identity}, Sink: e1})
	r.Add(&stream.Plan{Name: "cosine", Stages: []stream.Stage{identity}, Sink: e2})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e1.DocsProcessed() != e2.DocsProcessed() || e1.DocsProcessed() == 0 {
		t.Errorf("engines saw %d/%d docs", e1.DocsProcessed(), e2.DocsProcessed())
	}
	// Flush propagated: both have rankings.
	if e1.CurrentRanking().At.IsZero() || e2.CurrentRanking().At.IsZero() {
		t.Error("flush did not produce final rankings")
	}
}

func TestEngineSeedCriterionVolatility(t *testing.T) {
	cfg := testConfig()
	cfg.SeedCriterion = tagstats.ByVolatility
	e := New(cfg)
	feedDocs(e, background(t0, 6, 30))
	// Smoke: volatility criterion must not break ticking.
	if e.CurrentRanking().At.IsZero() {
		t.Error("no ranking under volatility criterion")
	}
}

func TestEngineArchiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("archive end-to-end in short mode")
	}
	events := source.HistoricEvents(t0)
	docs := source.GenerateArchive(source.ArchiveConfig{
		Seed: 42, Start: t0, Days: 25, DocsPerDay: 240, Events: events,
	})
	cfg := Config{
		WindowBuckets:    48,
		WindowResolution: time.Hour,
		TickEvery:        2 * time.Hour,
		SeedCount:        40,
		SeedMinCount:     3,
		Predictor:        predict.KindMovingAverage,
		PredictorConfig:  predict.Config{Window: 6},
		MinCooccurrence:  3,
		TopK:             15,
	}
	truth := map[pairs.Key]bool{}
	for i := range events {
		truth[events[i].Pair()] = true
	}
	e := New(cfg)
	stop := recordRankings(e)
	feedDocs(e, docs)

	firstSeen := map[pairs.Key]time.Time{}
	for _, r := range stop() {
		for _, topic := range r.Topics {
			if truth[topic.Pair] {
				if _, ok := firstSeen[topic.Pair]; !ok {
					firstSeen[topic.Pair] = r.At
				}
			}
		}
	}

	for _, ev := range events {
		at, ok := firstSeen[ev.Pair()]
		if !ok {
			t.Errorf("event %s (%v) never entered top-k", ev.Name, ev.Pair())
			continue
		}
		lag := at.Sub(ev.Start)
		if lag > 12*time.Hour {
			t.Errorf("event %s detected %v after start, want <= 12h", ev.Name, lag)
		}
	}
}

func BenchmarkEngineConsume(b *testing.B) {
	docs := source.GenerateArchive(source.ArchiveConfig{
		Seed: 1, Start: t0, Days: 10, DocsPerDay: 500,
	})
	items := make([]*stream.Item, len(docs))
	for i := range docs {
		items[i] = docs[i].Item()
	}
	e := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Consume(items[i%len(items)])
	}
}
