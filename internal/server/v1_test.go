package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
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

// serverStream feeds a real engine; Follow must publish every tick to the
// server, and per-profile SSE streams must carry re-ranked views.
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
	defer s.Close()
	s.Follow(e)
	h := s.Handler()

	if w := postJSON(t, h, "/v1/profiles", `{"name":"pol","keywords":["scandal"],"boost":7}`); w.Code != http.StatusCreated {
		t.Fatalf("create profile = %d", w.Code)
	}

	// Per-profile SSE stream: run the handler against a live request.
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stream?profile=pol")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

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

	// The Follow feed is asynchronous; wait for the server to publish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := get(t, h, "/v1/rankings")
		var view RankingView
		_ = json.Unmarshal(w.Body.Bytes(), &view)
		if !view.At.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Follow never published a ranking")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Read one SSE frame off the profile stream.
	sc := bufio.NewScanner(resp.Body)
	frameCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				frameCh <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case frame := <-frameCh:
		var view RankingView
		if err := json.Unmarshal([]byte(frame), &view); err != nil {
			t.Fatalf("bad SSE frame: %v", err)
		}
		// The profile boosts "scandal"; if topics exist, a matching topic
		// must lead (boost 7 dwarfs raw scores here).
		if len(view.Topics) > 0 {
			lead := view.Topics[0]
			if lead.Tag1 != "scandal" && lead.Tag2 != "scandal" {
				t.Errorf("profile stream not re-ranked, lead topic %s+%s", lead.Tag1, lead.Tag2)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame on profile stream")
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
