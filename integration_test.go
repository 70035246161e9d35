// End-to-end integration tests: the full production path from dataset
// generation through JSONL persistence, replay, a stream plan with entity
// tagging, the engine, history, personalization alerts, and
// the SSE front-end — everything a deployment touches, in one flow.
package enblogue_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/entity"
	"enblogue/internal/history"
	"enblogue/internal/pairs"
	"enblogue/internal/persona"
	"enblogue/internal/server"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

func TestFullPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in short mode")
	}

	// 1. Generate a live-style dataset with scripted ground truth and
	//    persist it as JSONL, as a wrapper archiving a feed would.
	span := 24 * time.Hour
	cfg := source.TweetConfig{
		Seed:  3,
		Start: time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC),
		Span:  span, TweetsPerMinute: 10,
		Happenings: []source.Happening{{
			Name:   "eruption",
			Tags:   [2]string{"volcano", "air-traffic"},
			Offset: span / 2, Duration: span / 6, DocsPerMinute: 3,
			Text: "Eyjafjallajokull ash cloud grounding flights over Iceland",
		}},
	}
	docs := source.GenerateTweets(cfg)
	var buf bytes.Buffer
	if err := source.WriteJSONL(&buf, docs); err != nil {
		t.Fatal(err)
	}

	// 2. Read it back (strict) and replay through a plan into the engine,
	//    with entity tagging enabled.
	loaded, skipped, err := source.ReadJSONL(&buf, true)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadJSONL: %v (skipped %d)", err, skipped)
	}
	if len(loaded) != len(docs) {
		t.Fatalf("loaded %d of %d docs", len(loaded), len(docs))
	}

	srv := server.New()
	hist := history.New(0)
	srv.AttachHistory(hist)
	srv.Registry().Set(&persona.Profile{
		Name: "traveller", Keywords: []string{"volcano", "air-traffic"},
	})

	g, o := entity.Sample()
	engine := core.New(core.Config{
		WindowBuckets:    12,
		WindowResolution: time.Hour,
		SeedCount:        20,
		SeedMinCount:     4,
		MinCooccurrence:  3,
		TopK:             10,
		UpOnly:           true,
		UseEntities:      true,
		Tagger:           entity.NewTagger(g, o),
	})
	// The server follows the engine's broker, as production wiring does.
	defer srv.Close()
	srv.Follow(engine)

	runner := stream.NewRunner(&source.Replayer{Docs: loaded})
	runner.Add(&stream.Plan{Name: "main", Sink: engine})
	if err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// 3. The engine found the scripted event.
	target := pairs.MakeKey("volcano", "air-traffic")
	final := engine.CurrentRanking()
	if r := rankOf(final, target); r < 0 {
		t.Fatalf("event pair missing from final ranking: %+v", final.Topics)
	}

	// 4. Every replayed item reached the engine.
	if n := engine.DocsProcessed(); n != int64(len(loaded)) {
		t.Errorf("engine consumed %d items, want %d", n, len(loaded))
	}

	// The Follow feed publishes asynchronously from the broker dispatcher;
	// wait until the server has broadcast the stream's final tick before
	// asserting on history and served state.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		var v server.RankingView
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rankings", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err == nil && v.At.Equal(final.At) {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("server never published the final tick")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 5. History answers range queries: the event pair tops the range
	//    covering the surge but is absent before it.
	// The tag pair ties with its entity-mixture siblings (the tagger pulls
	// "eyjafjallajökull" out of the tweet text), so the target need only be
	// in the tied head of the range ranking.
	eventStart := cfg.Start.Add(span / 2)
	top := hist.TopInRange(eventStart, eventStart.Add(span/4), 5, history.MaxScore)
	inHead := false
	for i, e := range top {
		if i < 3 && e.Pair == target {
			inHead = true
		}
	}
	if !inHead {
		t.Errorf("history top during event = %+v", top)
	}
	for _, e := range hist.TopInRange(cfg.Start, eventStart.Add(-time.Hour), 20, history.MaxScore) {
		if e.Pair == target {
			t.Error("event pair ranked before the event")
		}
	}

	// 6. The SSE front-end serves the final state, the traveller's
	//    personalized view, and the range-query endpoint.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/rankings")
	if err != nil {
		t.Fatal(err)
	}
	var view server.RankingView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Topics) == 0 {
		t.Fatal("served ranking empty")
	}
	found := false
	for _, tv := range view.Profiles["traveller"] {
		if tv.Tag1 == "air-traffic" && tv.Tag2 == "volcano" {
			found = true
		}
	}
	if !found {
		t.Errorf("traveller view missing event: %+v", view.Profiles["traveller"])
	}

	resp, err = http.Get(ts.URL + "/v1/rankings/history?k=3")
	if err != nil {
		t.Fatal(err)
	}
	var entries []server.HistoryEntryView
	json.NewDecoder(resp.Body).Decode(&entries)
	resp.Body.Close()
	if len(entries) == 0 {
		t.Error("history endpoint returned nothing")
	}

	// 7. Topic expansion hands off a keyword query for exploration.
	set := engine.ExpandTopic(target, 2)
	q := core.KeywordQuery(set)
	if !strings.Contains(q, "volcano") || !strings.Contains(q, "air-traffic") {
		t.Errorf("keyword query = %q", q)
	}
}

// rankOf returns the 0-based rank of the pair in the ranking, or -1.
func rankOf(r core.Ranking, k pairs.Key) int {
	for i, t := range r.Topics {
		if t.Pair == k {
			return i
		}
	}
	return -1
}
