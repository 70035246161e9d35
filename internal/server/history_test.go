package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/history"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

func newHistoryServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	s.AttachHistory(history.New(100))
	// Three ticks: pair a+b rises then falls; c+d appears once.
	for i, sc := range []float64{0.1, 0.9, 0.3} {
		r := core.Ranking{At: t0.Add(time.Duration(i) * time.Hour)}
		r.Topics = append(r.Topics, shift.Topic{Pair: pairs.MakeKey("a", "b"), Score: sc})
		if i == 2 {
			r.Topics = append(r.Topics, shift.Topic{Pair: pairs.MakeKey("c", "d"), Score: 0.2})
		}
		s.PublishRanking(r)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHistoryEndpoint(t *testing.T) {
	_, ts := newHistoryServer(t)
	resp, err := http.Get(ts.URL + "/v1/rankings/history?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []HistoryEntryView
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Tag1 != "a" || entries[0].Score != 0.9 || entries[0].Ticks != 3 {
		t.Errorf("entries[0] = %+v", entries[0])
	}
}

func TestHistoryEndpointRange(t *testing.T) {
	_, ts := newHistoryServer(t)
	// Restrict to the first tick only: c+d must vanish, a+b max = 0.1.
	q := url.Values{}
	q.Set("from", t0.Format(time.RFC3339))
	q.Set("to", t0.Add(30*time.Minute).Format(time.RFC3339))
	resp, err := http.Get(ts.URL + "/v1/rankings/history?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []HistoryEntryView
	json.NewDecoder(resp.Body).Decode(&entries)
	if len(entries) != 1 || entries[0].Score != 0.1 {
		t.Errorf("range entries = %+v", entries)
	}
}

func TestHistoryEndpointValidation(t *testing.T) {
	_, ts := newHistoryServer(t)
	for _, bad := range []string{
		"/v1/rankings/history?from=notatime",
		"/v1/rankings/history?to=alsobad",
		"/v1/rankings/history?k=0",
		"/v1/rankings/history?k=xyz",
		"/v1/rankings/history?agg=median",
		"/v1/rankings/trajectory", // missing tags
		"/v1/rankings/trajectory?tag1=a&tag2=b&from=bad",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHistoryNotEnabled(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/rankings/history", "/v1/rankings/trajectory?tag1=a&tag2=b"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestTrajectoryEndpoint(t *testing.T) {
	_, ts := newHistoryServer(t)
	resp, err := http.Get(ts.URL + "/v1/rankings/trajectory?tag1=b&tag2=a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pts []TrajectoryPointView
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("trajectory = %+v", pts)
	}
	if pts[1].Score != 0.9 || pts[1].Rank != 0 {
		t.Errorf("pts[1] = %+v", pts[1])
	}
	// Aggregate mean via history endpoint.
	resp2, err := http.Get(ts.URL + "/v1/rankings/history?agg=mean")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var entries []HistoryEntryView
	json.NewDecoder(resp2.Body).Decode(&entries)
	found := false
	for _, e := range entries {
		if e.Tag1 == "a" {
			found = true
			want := (0.1 + 0.9 + 0.3) / 3
			if diff := e.Score - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("mean score = %v, want %v", e.Score, want)
			}
		}
	}
	if !found {
		t.Error("a+b missing from mean aggregate")
	}
}
