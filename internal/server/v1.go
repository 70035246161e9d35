package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"enblogue/internal/core"
	"enblogue/internal/persona"
)

// This file implements the /v1 wire contract — both the tenant-scoped
// /v1/tenants/{tenant}/... routes and the tenant-less aliases onto the
// default tenant. Wire shapes (TopicView, RankingView, StatsView,
// ProfileView, TenantView, IngestView) are stable: fields may be added,
// never renamed or removed, within the v1 major version. The multi-tenant
// additions follow that rule: StatsView gained tenant (the answering
// tenant's name), uptime (seconds since the tenant was created), and its
// per-tenant rankingsDropped now counts only that tenant's engine;
// TenantView and IngestView are new shapes, frozen on the same terms.
// Example payloads are documented in DESIGN.md §5 and §7.

// ProfileView is the stable wire form of one personalization profile.
//
//enblogue:wire
type ProfileView struct {
	Name       string   `json:"name"`
	Keywords   []string `json:"keywords,omitempty"`
	Categories []string `json:"categories,omitempty"`
	Boost      float64  `json:"boost,omitempty"`
	Exclusive  bool     `json:"exclusive,omitempty"`
}

func profileView(p *persona.Profile) ProfileView {
	return ProfileView{
		Name:       p.Name,
		Keywords:   append([]string(nil), p.Keywords...),
		Categories: append([]string(nil), p.Categories...),
		Boost:      p.Boost,
		Exclusive:  p.Exclusive,
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing sensible left to do.
		_ = err
	}
}

// handleV1Rankings serves GET [/v1/tenants/{tenant}]/v1/rankings
// [?profile=name]: the tenant's current broadcast ranking, or one
// profile's personalized view of it.
func (s *Server) handleV1Rankings(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	view, topics := t.lastView, t.lastTopics
	t.mu.Unlock()
	name := r.URL.Query().Get("profile")
	if name == "" {
		writeJSON(w, http.StatusOK, view)
		return
	}
	p := t.registry.Get(name)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown profile %q", name), http.StatusNotFound)
		return
	}
	// Rerank the broadcast snapshot on demand so a profile registered
	// after the last tick still gets a personalized answer immediately.
	writeJSON(w, http.StatusOK, RankingView{At: view.At, Seeds: view.Seeds, Topics: topicViews(topics, p)})
}

// predicateOpts parses the stream predicate query parameters —
// ?tags=a,b (any-of), ?allTags=a,b (all-of), ?minScore=0.5,
// ?emergenceOnly=true — into subscription options. Returns nil options
// when no predicate parameter is present.
func predicateOpts(q url.Values) ([]core.SubOption, error) {
	var opts []core.SubOption
	if tags := splitTagList(q.Get("tags")); len(tags) > 0 {
		opts = append(opts, core.SubTags(tags...))
	}
	if tags := splitTagList(q.Get("allTags")); len(tags) > 0 {
		opts = append(opts, core.SubAllTags(tags...))
	}
	if v := q.Get("minScore"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad minScore %q", v)
		}
		opts = append(opts, core.SubMinScore(f))
	}
	if v := q.Get("emergenceOnly"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("bad emergenceOnly %q", v)
		}
		if b {
			opts = append(opts, core.SubEmergenceOnly())
		}
	}
	return opts, nil
}

func splitTagList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// handleV1Stream serves GET [/v1/tenants/{tenant}]/v1/stream
// [?profile=name][&tags=a,b][&allTags=a,b][&minScore=f][&emergenceOnly=true].
// Without a profile or predicate it is the tenant's broadcast SSE feed —
// every such client shares the single payload the hub marshalled for the
// tick, so fan-out cost is one serialization per tick regardless of
// client count. With a profile and/or predicate parameters, the server
// opens a dedicated engine subscription — a server-side continuous query
// compiled into the broker's inverted tag index — and streams its
// filtered, re-ranked views for the lifetime of the request; predicated
// streams only carry frames on ticks where the filtered view changed.
func (s *Server) handleV1Stream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("profile")
	predOpts, err := predicateOpts(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if name == "" && len(predOpts) == 0 {
		s.handleEvents(w, r)
		return
	}
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	var p *persona.Profile
	if name != "" {
		if p = t.registry.Get(name); p == nil {
			http.Error(w, fmt.Sprintf("unknown profile %q", name), http.StatusNotFound)
			return
		}
	}
	t.mu.Lock()
	e := t.engine
	t.mu.Unlock()
	if e == nil {
		http.Error(w, "no engine attached; per-profile and predicate streams unavailable", http.StatusServiceUnavailable)
		return
	}
	subOpts := append(predOpts, core.SubBuffer(8))
	if p != nil {
		subOpts = append(subOpts, core.SubProfile(p))
	}
	serveSSE(w, r, t, func() (<-chan *core.Notification, func()) {
		sub := e.Subscribe(r.Context(), subOpts...)
		return sub.Notifications(), sub.Close
	}, func(n *core.Notification) ([]byte, error) {
		// No profiles map, moves or alerts: those belong to the broadcast frame.
		rk := n.Ranking()
		return json.Marshal(RankingView{At: rk.At, Seeds: rk.Seeds, Topics: topicViews(rk.Topics, nil)})
	})
}

// handleV1ProfilesList serves GET [/v1/tenants/{tenant}]/v1/profiles: the
// tenant's registered profiles.
func (s *Server) handleV1ProfilesList(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	names := t.registry.Names()
	out := make([]ProfileView, 0, len(names))
	for _, n := range names {
		if p := t.registry.Get(n); p != nil {
			out = append(out, profileView(p))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleV1ProfilePut serves POST [/v1/tenants/{tenant}]/v1/profiles:
// register or replace a profile on the tenant, answering with the stored
// state.
func (s *Server) handleV1ProfilePut(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	var req profileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad profile JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Name == "" {
		http.Error(w, "profile name required", http.StatusBadRequest)
		return
	}
	t.setProfile(&req)
	// Answer from the request, not a registry re-read: a concurrent DELETE
	// could remove the profile between Set and Get.
	writeJSON(w, http.StatusCreated, profileView(&persona.Profile{
		Name:       req.Name,
		Keywords:   req.Keywords,
		Categories: req.Categories,
		Boost:      req.Boost,
		Exclusive:  req.Exclusive,
	}))
}

// handleV1ProfileGet serves GET [/v1/tenants/{tenant}]/v1/profiles/{name}.
func (s *Server) handleV1ProfileGet(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	name := r.PathValue("name")
	p := t.registry.Get(name)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown profile %q", name), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, profileView(p))
}

// handleV1ProfileDelete serves DELETE
// [/v1/tenants/{tenant}]/v1/profiles/{name}: the persona's server-side
// standing query ends; the tenant's next broadcast frame no longer carries
// its view.
func (s *Server) handleV1ProfileDelete(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	name := r.PathValue("name")
	if t.registry.Get(name) == nil {
		http.Error(w, fmt.Sprintf("unknown profile %q", name), http.StatusNotFound)
		return
	}
	t.registry.Remove(name)
	t.mu.Lock()
	t.watcher.Reset(name)
	t.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}
