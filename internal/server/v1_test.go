package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/history"
	"enblogue/internal/persona"
	"enblogue/internal/stream"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestV1RankingsAndProfileViews(t *testing.T) {
	s := New()
	h := s.Handler()
	s.PublishRanking(sampleRanking())

	w := get(t, h, "/v1/rankings")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rankings = %d", w.Code)
	}
	var view RankingView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Topics) != 2 || view.Topics[0].Tag1 != "politics" {
		t.Fatalf("broadcast view = %+v", view)
	}

	// Personalized snapshot for a profile registered AFTER the tick.
	if w := postJSON(t, h, "/v1/profiles",
		`{"name":"icelander","keywords":["volcano"],"boost":10}`); w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/profiles = %d: %s", w.Code, w.Body)
	}
	w = get(t, h, "/v1/rankings?profile=icelander")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rankings?profile = %d", w.Code)
	}
	var pview RankingView
	if err := json.Unmarshal(w.Body.Bytes(), &pview); err != nil {
		t.Fatal(err)
	}
	if len(pview.Topics) != 2 || pview.Topics[0].Tag1 != "iceland" {
		t.Fatalf("personalized view not re-ranked: %+v", pview.Topics)
	}
	if pview.Topics[0].Score != 0.5*10 {
		t.Errorf("boost not applied: score = %v", pview.Topics[0].Score)
	}

	if w := get(t, h, "/v1/rankings?profile=nobody"); w.Code != http.StatusNotFound {
		t.Errorf("unknown profile = %d, want 404", w.Code)
	}
}

func TestV1ProfileCRUD(t *testing.T) {
	s := New()
	h := s.Handler()

	if w := postJSON(t, h, "/v1/profiles", `{"keywords":["x"]}`); w.Code != http.StatusBadRequest {
		t.Errorf("nameless profile = %d, want 400", w.Code)
	}
	if w := postJSON(t, h, "/v1/profiles", `{"name":"ada","keywords":["db"],"exclusive":true}`); w.Code != http.StatusCreated {
		t.Fatalf("create = %d", w.Code)
	}

	w := get(t, h, "/v1/profiles/ada")
	if w.Code != http.StatusOK {
		t.Fatalf("GET one = %d", w.Code)
	}
	var p ProfileView
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "ada" || !p.Exclusive || len(p.Keywords) != 1 {
		t.Errorf("profile = %+v", p)
	}

	w = get(t, h, "/v1/profiles")
	var list []ProfileView
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "ada" {
		t.Errorf("list = %+v", list)
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/profiles/ada", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	if w := get(t, h, "/v1/profiles/ada"); w.Code != http.StatusNotFound {
		t.Errorf("GET after delete = %d, want 404", w.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/v1/profiles/ada", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", rec.Code)
	}
}

// The unversioned pre-/v1 routes are gone: each answers 404, while the
// index page and the /v1 routes they pointed at answer as before.
func TestUnversionedRoutesGone(t *testing.T) {
	s := New()
	h := s.Handler()
	s.PublishRanking(sampleRanking())

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/events", http.StatusNotFound},
		{"/ranking", http.StatusNotFound},
		{"/profile", http.StatusNotFound},
		{"/profiles", http.StatusNotFound},
		{"/history", http.StatusNotFound},
		{"/trajectory", http.StatusNotFound},
		{"/stats", http.StatusNotFound},
		{"/", http.StatusOK},
		{"/v1/rankings", http.StatusOK},
		{"/v1/tenants/" + DefaultTenant + "/rankings", http.StatusOK},
	} {
		if w := get(t, h, tc.path); w.Code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, w.Code, tc.want)
		}
	}
}

// openSSE opens an SSE stream and returns a scanner over its lines. The
// request returns once the response headers arrive, and the server
// subscribes before it sends them, so the stream holds every frame
// published after openSSE returns. The stream closes at test cleanup.
func openSSE(t *testing.T, url string) *bufio.Scanner {
	t.Helper()
	// A failure bound, not a wait: the tests read only frames already
	// published, so only a broken server lets a read reach it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close(); cancel() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return bufio.NewScanner(resp.Body)
}

// frameAt reads SSE frames until one is stamped at, failing if the stream
// ends first.
func frameAt(t *testing.T, sc *bufio.Scanner, at time.Time) RankingView {
	t.Helper()
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var v RankingView
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			t.Fatalf("bad SSE frame: %v", err)
		}
		if v.At.Equal(at) {
			return v
		}
	}
	t.Fatalf("stream ended before a frame at %v: %v", at, sc.Err())
	return RankingView{}
}

// rankingAt fetches a RankingView and fails unless it is stamped at.
func rankingAt(t *testing.T, h http.Handler, path string, at time.Time) RankingView {
	t.Helper()
	w := get(t, h, path)
	var v RankingView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("GET %s = %d: %v", path, w.Code, err)
	}
	if !v.At.Equal(at) {
		t.Fatalf("GET %s at %v, want %v", path, v.At, at)
	}
	return v
}

// Follow must publish every tick to the server, and per-profile SSE
// streams must carry re-ranked views.
func TestV1FollowEngineAndProfileStream(t *testing.T) {
	e := core.New(core.Config{
		WindowBuckets:    12,
		WindowResolution: time.Hour,
		SeedCount:        10,
		SeedWarmupDocs:   10,
		MinCooccurrence:  2,
		TopK:             5,
	})
	s := New()
	t.Cleanup(s.Close)
	s.Follow(e)
	h := s.Handler()

	if w := postJSON(t, h, "/v1/profiles", `{"name":"pol","keywords":["scandal"],"boost":7}`); w.Code != http.StatusCreated {
		t.Fatalf("create profile = %d", w.Code)
	}

	// Per-profile SSE stream: run the handler against a live request.
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	sse := openSSE(t, srv.URL+"/v1/stream?profile=pol")

	id := 0
	feed := func(hr, mi int, tags ...string) {
		id++
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(hr)*time.Hour + time.Duration(mi)*time.Minute),
			DocID: fmt.Sprintf("d-%04d", id),
			Tags:  tags,
		})
	}
	for hr := 0; hr < 6; hr++ {
		for mi := 0; mi < 60; mi += 5 {
			feed(hr, mi, "news", "politics")
		}
	}
	for mi := 0; mi < 60; mi += 6 {
		feed(4, mi, "politics", "scandal")
	}
	e.Flush()
	final := e.CurrentRanking().At
	rankingAt(t, h, "/v1/rankings", final)

	// The profile boosts "scandal": a matching topic must lead the final
	// tick's frame (boost 7 dwarfs raw scores here).
	view := frameAt(t, sse, final)
	if len(view.Topics) == 0 {
		t.Fatal("final profile frame has no topics")
	}
	if lead := view.Topics[0]; lead.Tag1 != "scandal" && lead.Tag2 != "scandal" {
		t.Errorf("profile stream not re-ranked, lead topic %s+%s", lead.Tag1, lead.Tag2)
	}

	// Stats must reflect the engine and its subscriptions.
	w := get(t, h, "/v1/stats")
	var stats StatsView
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.DocsProcessed == 0 || stats.Subscriptions == 0 {
		t.Errorf("stats = %+v, want docs and subscriptions > 0", stats)
	}
}

// TestFlushPublishesThroughServer pins the delivery contract: once a
// followed engine's Flush returns, the server has published its final
// tick. GET rankings, the history and every SSE client connected before
// ingest hold it, each read once with no retry. It covers the default
// tenant and a tenant created over POST /v1/tenants, each with an
// unfiltered and a ?profile= client.
func TestFlushPublishesThroughServer(t *testing.T) {
	hub := testHub()
	t.Cleanup(hub.Close)
	s := New()
	t.Cleanup(s.Close)
	s.AttachOpener(hubOpener{hub})
	s.AttachHistory(history.New(64))
	def, err := hub.Open(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	s.Follow(def)
	h := s.Handler()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	if w := postJSON(t, h, "/v1/tenants", `{"name":"news"}`); w.Code != http.StatusCreated {
		t.Fatalf("create tenant = %d", w.Code)
	}

	// Twelve hours of chatter and an hour of scandal: a tick per hour of
	// event time, thirteen with Flush's — more than an SSE client's
	// eight-frame buffer holds, so a client that falls behind must still
	// end on the final tick.
	body := jsonlItems(t, 12)
	for mi := 0; mi < 60; mi += 6 {
		body += fmt.Sprintf(`{"time":%q,"id":"s-%02d","tags":["politics","scandal"]}`+"\n",
			t0.Add(10*time.Hour+time.Duration(mi)*time.Minute).Format(time.RFC3339), mi)
	}
	for _, tenant := range []string{DefaultTenant, "news"} {
		t.Run(tenant, func(t *testing.T) {
			base := "/v1/tenants/" + tenant
			if w := postJSON(t, h, base+"/profiles", `{"name":"pol","keywords":["scandal"],"boost":7}`); w.Code != http.StatusCreated {
				t.Fatalf("create profile = %d", w.Code)
			}
			all := openSSE(t, srv.URL+base+"/stream")
			pol := openSSE(t, srv.URL+base+"/stream?profile=pol")
			if w := postJSON(t, h, base+"/items", body); w.Code != http.StatusOK {
				t.Fatalf("POST items = %d: %s", w.Code, w.Body)
			}
			e, ok := hub.Get(tenant)
			if !ok {
				t.Fatal("hub lost the tenant engine")
			}
			e.Flush()
			final := e.CurrentRanking()
			if len(final.Topics) == 0 {
				t.Fatal("final ranking has no topics")
			}

			rankingAt(t, h, base+"/rankings", final.At)
			lead := final.Topics[0].Pair
			at := final.At.Format(time.RFC3339)
			var traj []TrajectoryPointView
			w := get(t, h, base+"/rankings/trajectory?tag1="+lead.Tag1()+"&tag2="+lead.Tag2()+"&from="+at+"&to="+at)
			if err := json.Unmarshal(w.Body.Bytes(), &traj); err != nil {
				t.Fatalf("trajectory = %d: %v", w.Code, err)
			}
			if len(traj) != 1 || !traj[0].At.Equal(final.At) || traj[0].Rank != 0 {
				t.Fatalf("history at the final tick = %+v, want the lead at rank 0", traj)
			}

			frame := frameAt(t, all, final.At)
			personal := frameAt(t, pol, final.At)
			// The broadcast frame's profile view, the profile stream and
			// GET rankings?profile= are one view, diagnostics included.
			want := rankingAt(t, h, base+"/rankings?profile=pol", final.At).Topics
			if !reflect.DeepEqual(frame.Profiles["pol"], want) {
				t.Errorf("frame profiles[pol] = %+v\nGET ?profile=pol = %+v", frame.Profiles["pol"], want)
			}
			if !reflect.DeepEqual(personal.Topics, want) {
				t.Errorf("profile stream = %+v\nGET ?profile=pol = %+v", personal.Topics, want)
			}
			if want[0].Correlation == 0 || want[0].Cooccurrence == 0 {
				t.Errorf("profile view lost its diagnostics: %+v", want[0])
			}
		})
	}
}

func TestV1StreamUnknownProfileAndNoEngine(t *testing.T) {
	s := New()
	h := s.Handler()
	if w := get(t, h, "/v1/stream?profile=ghost"); w.Code != http.StatusNotFound {
		t.Errorf("unknown profile stream = %d, want 404", w.Code)
	}
	s.Registry().Set(&persona.Profile{Name: "solo"})
	if w := get(t, h, "/v1/stream?profile=solo"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("no-engine profile stream = %d, want 503", w.Code)
	}
}
