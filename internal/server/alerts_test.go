package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enblogue/internal/persona"
)

func TestAlertsInPushedFrames(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"name":"alice","keywords":["volcano"]}`
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s.PublishRanking(sampleRanking())
	resp, err = http.Get(ts.URL + "/v1/rankings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view RankingView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range view.Alerts {
		if a.User == "alice" && a.Tag2 == "volcano" {
			found = true
		}
	}
	if !found {
		t.Errorf("alerts = %+v, want alice's volcano alert", view.Alerts)
	}
}

func TestAlertsNotRepeated(t *testing.T) {
	s := New()
	s.Registry().Set(&persona.Profile{Name: "bob"})
	s.PublishRanking(sampleRanking())
	r2 := sampleRanking()
	r2.At = r2.At.Add(time.Hour)
	s.PublishRanking(r2)
	def := s.defaultTenant()
	def.mu.Lock()
	alerts := def.lastView.Alerts
	def.mu.Unlock()
	if len(alerts) != 0 {
		t.Errorf("second tick repeated alerts: %+v", alerts)
	}
}

func TestProfileUpdateResetsAlerts(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() {
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/json",
			strings.NewReader(`{"name":"carol","keywords":["scandal"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post()
	s.PublishRanking(sampleRanking())
	// Re-registering the profile clears alert state → the next tick
	// re-alerts even though the topic never left the ranking.
	post()
	r2 := sampleRanking()
	r2.At = r2.At.Add(time.Hour)
	s.PublishRanking(r2)
	def := s.defaultTenant()
	def.mu.Lock()
	alerts := def.lastView.Alerts
	def.mu.Unlock()
	if len(alerts) == 0 {
		t.Error("profile update did not re-arm alerts")
	}
}
