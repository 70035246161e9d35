// Package server is the push-based Web front-end: rankings are streamed to
// browsers "in a push-based manner (i.e., without the user having to
// continuously poll the server for updates on emergent topic rankings)".
// The paper uses the Ajax Push Engine comet server; this implementation
// uses standard-library HTTP with Server-Sent Events, which delivers the
// same no-polling semantics to modern browsers (including mobile clients
// over low-bandwidth connections — SSE frames are tiny deltas).
//
// The server is multi-tenant: one process serves many named topic streams
// (one engine per community, feed, language, or customer), each with its
// own SSE hub, profile registry, alert watcher, and history ring, behind
// the tenant-scoped /v1/tenants/{name}/... wire contract. The tenant-less
// /v1/* routes remain first-class aliases onto the "default" tenant, so
// single-stream deployments and existing clients keep working unchanged.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/history"
	"enblogue/internal/persona"
	"enblogue/internal/rank"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
)

// Engine is the engine surface the server consumes: stats counters
// (durability and the tiered tail included), the subscription broker, and
// the ingest sink behind POST items. Both *core.Engine and the public
// enblogue engine satisfy it.
type Engine interface {
	DocsProcessed() int64
	ActivePairs() int
	Shards() int
	Seeds() []string
	LastEventTime() time.Time
	Subscribers() int
	IndexedTags() int
	MatchedLastTick() int64
	RankingsDropped() int64
	Subscribe(ctx context.Context, opts ...core.SubOption) *core.Subscription
	ConsumeBatch(items []*stream.Item)
	DurabilityStats() (core.DurabilityStats, bool)
	TailStats() core.TailStats
}

// TopicView is the wire form of one ranked emergent topic.
//
//enblogue:wire
type TopicView struct {
	Rank         int     `json:"rank"`
	Tag1         string  `json:"tag1"`
	Tag2         string  `json:"tag2"`
	Score        float64 `json:"score"`
	Correlation  float64 `json:"correlation"`
	Cooccurrence float64 `json:"cooccurrence"`
}

// RankingView is the wire form of one tick's output, optionally
// personalized per registered profile.
//
//enblogue:wire
type RankingView struct {
	At       time.Time              `json:"at"`
	Seeds    []string               `json:"seeds,omitempty"`
	Topics   []TopicView            `json:"topics"`
	Profiles map[string][]TopicView `json:"profiles,omitempty"`
	Moves    []rank.Move            `json:"moves,omitempty"`
	Alerts   []AlertView            `json:"alerts,omitempty"`
}

// AlertView is the wire form of one continuous-query notification: a topic
// matching the user's standing preferences newly entered their top-k.
//
//enblogue:wire
type AlertView struct {
	User  string  `json:"user"`
	Tag1  string  `json:"tag1"`
	Tag2  string  `json:"tag2"`
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
}

// Hub fans ranking updates out to connected SSE clients. A slow client
// loses its oldest queued frame rather than stalling the broadcaster — the
// broker's drop-oldest policy — so it always ends on the newest frame; the
// drops are counted.
type Hub struct {
	mu      sync.Mutex
	clients map[chan []byte]bool
	last    []byte
	dropped int64 // queued frames discarded because a client's buffer was full
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{clients: make(map[chan []byte]bool)}
}

// Broadcast marshals v and pushes it to every connected client. The frame
// is retained so late joiners immediately receive the current state.
func (h *Hub) Broadcast(v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: marshaling broadcast: %w", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last = data
	for ch := range h.clients {
		select {
		case ch <- data:
		default:
			// Client buffer full: discard its oldest frame and queue this
			// one. Only holders of h.mu send, so once a slot is free the
			// send cannot block, even if the client drained meanwhile.
			select {
			case <-ch:
			default:
			}
			ch <- data
			h.dropped++
		}
	}
	return nil
}

// subscribe registers a client channel and returns it with the latest
// frame pre-queued.
func (h *Hub) subscribe() chan []byte {
	ch := make(chan []byte, 8)
	h.mu.Lock()
	if h.last != nil {
		ch <- h.last
	}
	h.clients[ch] = true
	h.mu.Unlock()
	return ch
}

func (h *Hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.clients, ch)
	h.mu.Unlock()
}

// ClientCount returns the number of connected SSE clients.
func (h *Hub) ClientCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clients)
}

// FramesDropped returns the lifetime count of queued frames discarded for
// clients whose buffer was full, one per frame per client.
func (h *Hub) FramesDropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// DefaultTenant is the tenant the tenant-less /v1/* routes and the legacy
// single-engine server methods (Follow, PublishRanking, AttachHistory)
// operate on. It always exists and cannot be deleted.
const DefaultTenant = "default"

// tenantState is one tenant's complete front-end state: its SSE hub,
// profile registry, alert watcher, history ring, last published view, and
// followed engine. Tenants share nothing: each followed engine publishes
// on its own dispatcher, so a slow or bursty tenant cannot delay another's
// broadcasts.
type tenantState struct {
	name    string
	created time.Time
	hub     *Hub
	// ctx ends when the tenant is removed or the server closes; it bounds
	// the follow feed, and SSE handlers for this tenant select on it.
	ctx      context.Context
	cancel   context.CancelFunc
	registry *persona.Registry

	mu       sync.Mutex
	watcher  *persona.Watcher
	lastView RankingView
	// lastTopics are lastView's topics as ranked, which GET
	// rankings?profile= re-ranks on demand.
	lastTopics []shift.Topic
	prevIDs    rank.List
	history    *history.History
	engine     Engine
	feed       *core.Subscription // the followed engine's sink; closed on re-follow
}

// Server exposes the enBlogue front-end endpoints. The stable, versioned
// wire contract (see DESIGN.md §5 and §7):
//
//	GET    /v1/tenants                    list tenants (TenantView array)
//	POST   /v1/tenants                    create-or-get a tenant {"name": ...}
//	GET    /v1/tenants/{tenant}           one tenant's summary
//	DELETE /v1/tenants/{tenant}           close a tenant ("default" is not deletable)
//	POST   /v1/tenants/{tenant}/items     ingest JSONL documents (the write path)
//	GET    /v1/tenants/{tenant}/rankings             current RankingView snapshot;
//	                                                 ?profile=name personalizes
//	GET    /v1/tenants/{tenant}/rankings/history     top topics over a time range
//	GET    /v1/tenants/{tenant}/rankings/trajectory  one pair's (rank, score) over time
//	GET    /v1/tenants/{tenant}/stream               SSE RankingView frames;
//	                                                 ?profile=name for a private stream
//	GET    /v1/tenants/{tenant}/profiles             list profiles (full JSON)
//	POST   /v1/tenants/{tenant}/profiles             register/update a profile
//	GET    /v1/tenants/{tenant}/profiles/{name}      fetch one profile
//	DELETE /v1/tenants/{tenant}/profiles/{name}      delete a profile
//	GET    /v1/tenants/{tenant}/stats                engine/broker/server counters
//
// The tenant-less /v1/{rankings,rankings/history,rankings/trajectory,
// stream,profiles,stats} routes are permanent aliases onto the "default"
// tenant, so single-stream deployments need never mention tenants.
type Server struct {
	// ctx bounds the tenants' follow feeds and parked SSE streams; Close
	// cancels it.
	ctx     context.Context
	cancel  context.CancelFunc
	started time.Time

	mu           sync.Mutex
	tenants      map[string]*tenantState
	opener       Opener
	historyTicks int

	// lifecycleMu serialises tenant creation against deletion over the
	// wire, so POST /v1/tenants' open-then-follow-then-respond sequence is
	// atomic relative to DELETE /v1/tenants/{tenant}. It is never held
	// while publishing or serving reads.
	lifecycleMu sync.Mutex
}

// New returns a server with a single empty "default" tenant.
func New() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ctx:          ctx,
		cancel:       cancel,
		started:      time.Now(),
		tenants:      make(map[string]*tenantState),
		historyTicks: 4096,
	}
	s.ensureTenant(DefaultTenant)
	return s
}

// newTenantState builds a tenant's empty front-end state.
func (s *Server) newTenantState(name string) *tenantState {
	reg := persona.NewRegistry()
	ctx, cancel := context.WithCancel(s.ctx)
	return &tenantState{
		name:     name,
		created:  time.Now(),
		hub:      NewHub(),
		ctx:      ctx,
		cancel:   cancel,
		registry: reg,
		watcher:  persona.NewWatcher(reg, 10),
	}
}

// ensureTenant returns the named tenant's state, creating it if absent.
func (s *Server) ensureTenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = s.newTenantState(name)
		s.tenants[name] = t
	}
	return t
}

// tenant returns the named tenant's state, nil if absent.
func (s *Server) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// defaultTenant returns the always-present default tenant.
func (s *Server) defaultTenant() *tenantState { return s.ensureTenant(DefaultTenant) }

// Tenants returns the server's tenant names, sorted.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close releases the server's background resources: every tenant's engine
// feed and server-side subscriptions. Idempotent. The HTTP handler keeps
// answering from the last published state.
func (s *Server) Close() { s.cancel() }

// Registry exposes the default tenant's personalization registry.
func (s *Server) Registry() *persona.Registry { return s.defaultTenant().registry }

// SetTenantHistoryTicks sets the history ring length FollowTenant gives a
// newly created non-default tenant (default 4096; <= 0 disables automatic
// histories). The default tenant keeps the legacy contract: no history
// until AttachHistory.
func (s *Server) SetTenantHistoryTicks(n int) {
	s.mu.Lock()
	s.historyTicks = n
	s.mu.Unlock()
}

// AttachHistory connects a ranking history to the default tenant:
// PublishRanking records every tick into it, and the history/trajectory
// endpoints answer time-range queries against it.
func (s *Server) AttachHistory(h *history.History) {
	t := s.defaultTenant()
	t.mu.Lock()
	t.history = h
	t.mu.Unlock()
}

// Follow attaches the engine to the default tenant and subscribes the
// server to its ranking broker; see FollowTenant.
func (s *Server) Follow(e Engine) { _ = s.FollowTenant(DefaultTenant, e) }

// FollowTenant attaches the engine as the named tenant — created on first
// use — and subscribes the tenant to its ranking broker: every evaluation
// tick is published to the tenant's SSE clients, recorded into its
// history, and personalized for its registered profiles, without the
// engine knowing the server exists. A newly created non-default tenant
// gets its own history ring (SetTenantHistoryTicks). The feed stops when
// the tenant is removed, the server is Closed, or the engine's broker
// shuts down; re-following a tenant closes its previous feed.
//
// The feed is a sink on the engine's dispatcher (core.SubSink): publishing
// (per-profile rerank, history record, JSON broadcast) runs there, one
// tick at a time and in tick order. A followed tenant therefore never
// drops a tick, its history has no gaps, and the engine's Flush returns
// only once /v1/rankings, the history and every connected SSE client's
// hub buffer hold the final tick. SSE clients too slow to drain that
// buffer lose frames, counted as framesDropped; the engine never waits
// for them.
func (s *Server) FollowTenant(name string, e Engine) error {
	if err := core.ValidateTenantName(name); err != nil {
		return err
	}
	t := s.ensureTenant(name)
	s.mu.Lock()
	ticks := s.historyTicks
	s.mu.Unlock()

	t.mu.Lock()
	if t.history == nil && t.name != DefaultTenant && ticks > 0 {
		t.history = history.New(ticks)
	}
	t.mu.Unlock()
	feed := e.Subscribe(t.ctx, core.SubSink(func(n *core.Notification) { s.publish(t, n.Ranking()) }))
	t.mu.Lock()
	prev := t.feed
	t.engine, t.feed = e, feed
	t.mu.Unlock()
	if prev != nil {
		prev.Close()
	}
	return nil
}

// removeTenant drops the named tenant's state and cancels its context,
// closing its follow feed and ending its parked SSE streams. The default
// tenant is never removed. Reports whether the tenant existed.
func (s *Server) removeTenant(name string) bool {
	if name == DefaultTenant {
		return false
	}
	s.mu.Lock()
	t, ok := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if ok {
		t.cancel()
	}
	return ok
}

// StatsView is the wire form of GET /v1/stats and the per-tenant
// /v1/tenants/{tenant}/stats.
//
//enblogue:wire
type StatsView struct {
	DocsProcessed   int64     `json:"docsProcessed"`
	ActivePairs     int       `json:"activePairs"`
	Shards          int       `json:"shards"`
	Seeds           int       `json:"seeds"`
	LastEventTime   time.Time `json:"lastEventTime"`
	Clients         int       `json:"clients"`
	FramesDropped   int64     `json:"framesDropped"`
	Profiles        int       `json:"profiles"`
	Subscriptions   int       `json:"subscriptions"`
	RankingsDropped int64     `json:"rankingsDropped"`
	IndexedTags     int       `json:"indexedTags"`
	MatchedLastTick int64     `json:"matchedLastTick"`
	// IngestDepth and IngestDropped are always 0: the engine has no
	// ingest queue. They stay because v1 never removes a field.
	IngestDepth    int       `json:"ingestDepth"`
	IngestDropped  int64     `json:"ingestDropped"`
	SnapshotEpoch  int64     `json:"snapshotEpoch"`
	WALSegments    int       `json:"walSegments"`
	WALBytes       int64     `json:"walBytes"`
	LastSnapshotAt time.Time `json:"lastSnapshotAt"`
	// Tiered exact/sketch memory model (WithTailSketch). The per-shard
	// eviction counters are live even with the tier disabled; the tier
	// fields are zero then.
	TailEnabled         bool    `json:"tailEnabled"`
	TailPairs           int     `json:"tailPairs"`
	TailEpsilon         float64 `json:"tailEpsilon"`
	EstimatedErrorBound float64 `json:"estimatedErrorBound"`
	Promotions          int64   `json:"promotions"`
	ApproxSeededPairs   int     `json:"approxSeededPairs"`
	EvictedByShard      []int64 `json:"evictedByShard"`
	DemotedByShard      []int64 `json:"demotedByShard"`
	Tenant              string  `json:"tenant"`
	Uptime              float64 `json:"uptime"`
}

// topicViews converts ranked topics to wire form, numbering ranks from 1.
// With a profile, the topics are first re-ranked through
// persona.RerankTopics, so every view keeps its correlation and
// co-occurrence: the broadcast, each profile's view in the broadcast
// frame, GET rankings?profile= and the per-profile stream all agree.
func topicViews(topics []shift.Topic, p *persona.Profile) []TopicView {
	if p != nil {
		topics = persona.RerankTopics(topics, p)
	}
	out := make([]TopicView, len(topics))
	for i, t := range topics {
		out[i] = TopicView{
			Rank:         i + 1,
			Tag1:         t.Pair.Tag1(),
			Tag2:         t.Pair.Tag2(),
			Score:        t.Score,
			Correlation:  t.Correlation,
			Cooccurrence: t.Cooccurrence,
		}
	}
	return out
}

// PublishRanking converts an engine ranking to wire form and broadcasts it
// on the default tenant. Follow feeds it from the engine's dispatcher;
// callers doing their own wiring may invoke it directly. The server keeps
// r (history, rankings?profile=), so callers must not modify it later.
func (s *Server) PublishRanking(r core.Ranking) { s.publish(s.defaultTenant(), r) }

// publish converts one tenant's ranking to wire form — including each of
// the tenant's registered profiles' personalized lists and the rank moves
// since the tenant's last tick — and broadcasts it on the tenant's hub.
func (s *Server) publish(t *tenantState, r core.Ranking) {
	t.mu.Lock()
	h := t.history
	t.mu.Unlock()
	if h != nil {
		// Out-of-order ticks cannot happen from a single engine; an error
		// here means mis-wired publishers, surfaced by dropping the tick.
		_ = h.Record(r)
	}
	view := RankingView{At: r.At, Seeds: r.Seeds, Topics: topicViews(r.Topics, nil)}
	ptopics := make([]persona.Topic, len(r.Topics))
	cur := make(rank.List, len(r.Topics))
	for i, tp := range r.Topics {
		ptopics[i] = persona.Topic{Pair: tp.Pair, Score: tp.Score}
		cur[i] = rank.Entry{ID: tp.Pair.String(), Score: tp.Score}
	}
	if names := t.registry.Names(); len(names) > 0 {
		view.Profiles = make(map[string][]TopicView, len(names))
		for _, name := range names {
			if p := t.registry.Get(name); p != nil {
				view.Profiles[name] = topicViews(r.Topics, p)
			}
		}
	}

	t.mu.Lock()
	view.Moves = rank.Diff(t.prevIDs, cur)
	for _, a := range t.watcher.Observe(r.At, ptopics) {
		view.Alerts = append(view.Alerts, AlertView{
			User: a.User, Tag1: a.Pair.Tag1(), Tag2: a.Pair.Tag2(),
			Rank: a.Rank, Score: a.Score,
		})
	}
	t.prevIDs = cur
	t.lastView = view
	t.lastTopics = r.Topics
	t.mu.Unlock()

	// Broadcast errors mean a marshaling bug, not a client problem; the
	// view type is fully serialisable, so this cannot fail in practice.
	_ = t.hub.Broadcast(view)
}

// profileRequest is the POST /v1/profiles payload.
type profileRequest struct {
	Name       string   `json:"name"`
	Keywords   []string `json:"keywords"`
	Categories []string `json:"categories"`
	Boost      float64  `json:"boost"`
	Exclusive  bool     `json:"exclusive"`
}

// Handler returns the HTTP handler serving all endpoints: the tenant-scoped
// /v1/tenants contract and the tenant-less /v1 aliases onto the default
// tenant.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)

	// Tenant management and the tenant-scoped wire contract.
	mux.HandleFunc("GET /v1/tenants", s.handleTenantsList)
	mux.HandleFunc("POST /v1/tenants", s.handleTenantCreate)
	mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleTenantGet)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleTenantDelete)
	mux.HandleFunc("POST /v1/tenants/{tenant}/items", s.handleItemsIngest)
	mux.HandleFunc("GET /v1/tenants/{tenant}/rankings", s.handleV1Rankings)
	mux.HandleFunc("GET /v1/tenants/{tenant}/rankings/history", s.handleHistory)
	mux.HandleFunc("GET /v1/tenants/{tenant}/rankings/trajectory", s.handleTrajectory)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stream", s.handleV1Stream)
	mux.HandleFunc("GET /v1/tenants/{tenant}/profiles", s.handleV1ProfilesList)
	mux.HandleFunc("POST /v1/tenants/{tenant}/profiles", s.handleV1ProfilePut)
	mux.HandleFunc("GET /v1/tenants/{tenant}/profiles/{name}", s.handleV1ProfileGet)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/profiles/{name}", s.handleV1ProfileDelete)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)

	// Tenant-less /v1 aliases: the same handlers against the default
	// tenant (no {tenant} path value resolves to it).
	mux.HandleFunc("GET /v1/rankings", s.handleV1Rankings)
	mux.HandleFunc("GET /v1/rankings/history", s.handleHistory)
	mux.HandleFunc("GET /v1/rankings/trajectory", s.handleTrajectory)
	mux.HandleFunc("GET /v1/stream", s.handleV1Stream)
	mux.HandleFunc("GET /v1/profiles", s.handleV1ProfilesList)
	mux.HandleFunc("POST /v1/profiles", s.handleV1ProfilePut)
	mux.HandleFunc("GET /v1/profiles/{name}", s.handleV1ProfileGet)
	mux.HandleFunc("DELETE /v1/profiles/{name}", s.handleV1ProfileDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// tenantOr404 resolves the request's tenant: the {tenant} path segment, or
// the default tenant on the tenant-less routes. Writes a 404 and returns
// nil when the named tenant does not exist.
func (s *Server) tenantOr404(w http.ResponseWriter, r *http.Request) *tenantState {
	name := r.PathValue("tenant")
	if name == "" {
		name = DefaultTenant
	}
	t := s.tenant(name)
	if t == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
	}
	return t
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	e := t.engine
	t.mu.Unlock()
	view := StatsView{
		Clients:       t.hub.ClientCount(),
		FramesDropped: t.hub.FramesDropped(),
		Profiles:      t.registry.Len(),
		Tenant:        t.name,
		Uptime:        time.Since(t.created).Seconds(),
	}
	if e != nil {
		view.DocsProcessed = e.DocsProcessed()
		view.ActivePairs = e.ActivePairs()
		view.Shards = e.Shards()
		view.Seeds = len(e.Seeds())
		view.LastEventTime = e.LastEventTime()
		view.Subscriptions = e.Subscribers()
		view.RankingsDropped = e.RankingsDropped()
		view.IndexedTags = e.IndexedTags()
		view.MatchedLastTick = e.MatchedLastTick()
		if ds, on := e.DurabilityStats(); on {
			view.SnapshotEpoch = ds.SnapshotEpoch
			view.WALSegments = ds.WALSegments
			view.WALBytes = ds.WALBytes
			view.LastSnapshotAt = ds.LastSnapshotAt
		}
		// The per-shard eviction counters are populated even when the tier
		// is disabled (TailEnabled false, tier fields zero).
		ts := e.TailStats()
		view.TailEnabled = ts.Enabled
		view.TailPairs = ts.TailPairs
		view.TailEpsilon = ts.Epsilon
		view.EstimatedErrorBound = ts.ErrorBound
		view.Promotions = ts.Promotions
		view.ApproxSeededPairs = ts.ApproxSeededPairs
		view.EvictedByShard = ts.EvictedByShard
		view.DemotedByShard = ts.DemotedByShard
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(view); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// handleEvents serves the tenant's broadcast SSE feed: the hub's frames,
// the latest one first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	serveSSE(w, r, t, func() (<-chan []byte, func()) {
		ch := t.hub.subscribe()
		return ch, func() { t.hub.unsubscribe(ch) }
	}, func(frame []byte) ([]byte, error) { return frame, nil })
}

// serveSSE answers an SSE request: it subscribes, then sends the
// event-stream headers, then writes one data frame per value received
// until the channel closes, the client disconnects, or the tenant ends
// (removed, or the server closing — so http.Server.Shutdown can drain
// instead of timing out on parked handlers). Subscribing before the
// headers go out means a client whose response has arrived receives every
// later frame.
func serveSSE[T any](w http.ResponseWriter, r *http.Request, t *tenantState,
	subscribe func() (<-chan T, func()), frame func(T) ([]byte, error)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, unsubscribe := subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.ctx.Done():
			return
		case v, ok := <-ch:
			if !ok {
				return
			}
			data, err := frame(v)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// setProfile registers/replaces a profile on the tenant and forgets the
// user's alert state so the new preferences re-alert.
func (t *tenantState) setProfile(req *profileRequest) {
	t.registry.Set(&persona.Profile{
		Name:       req.Name,
		Keywords:   req.Keywords,
		Categories: req.Categories,
		Boost:      req.Boost,
		Exclusive:  req.Exclusive,
	})
	t.mu.Lock()
	t.watcher.Reset(req.Name)
	t.mu.Unlock()
}

// indexHTML is the minimal live demo page: an EventSource client rendering
// the pushed rankings, mirroring the paper's AJAX front-end.
const indexHTML = `<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>enBlogue — emergent topics</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
h1{font-size:1.4em} table{border-collapse:collapse;min-width:30em}
td,th{border:1px solid #ccc;padding:.3em .6em;text-align:left}
tr:nth-child(even){background:#f0f0f0} .score{text-align:right}
#at{color:#666}
</style></head>
<body>
<h1>enBlogue &mdash; emergent topics</h1>
<p id="at">waiting for first ranking&hellip;</p>
<table><thead><tr><th>#</th><th>topic</th><th class="score">score</th></tr></thead>
<tbody id="topics"></tbody></table>
<script>
const es = new EventSource('/v1/stream');
es.onmessage = e => {
  const v = JSON.parse(e.data);
  document.getElementById('at').textContent = 'as of ' + v.at;
  const tb = document.getElementById('topics');
  tb.innerHTML = '';
  (v.topics || []).forEach(t => {
    const tr = document.createElement('tr');
    tr.innerHTML = '<td>' + t.rank + '</td><td>' + t.tag1 + ' + ' + t.tag2 +
      '</td><td class="score">' + t.score.toFixed(4) + '</td>';
    tb.appendChild(tr);
  });
};
</script>
</body></html>
`
