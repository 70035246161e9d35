package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
)

// Hub is a named-tenant engine registry: one process hosts many independent
// topic streams — one per community, feed, language, or customer — each a
// full *Engine with its own window, seed set, pair tracker, detectors, and
// subscription broker. Tenants share nothing except the process-wide intern
// table (a tag interned by one tenant costs the others no work and no
// correctness: rankings order by rendered strings, never by raw IDs), so a
// tenant's rankings are bit-identical to a standalone engine fed the same
// item sequence.
//
// Construction layers per-tenant option overrides over hub-wide defaults:
// Open copies the default config, applies the tenant's mutators, and builds
// the engine from the normalized result. All methods are safe for
// concurrent use.
type Hub struct {
	cfg HubConfig

	// mu guards the tenant registry only; engine methods are never called
	// under it, so it is the outermost class in the process.
	//
	//enblogue:lock hub 5
	mu      sync.Mutex
	tenants map[string]*Engine
	closed  bool
}

// HubConfig parameterises a Hub. The zero value is usable: paper-default
// engines, unbounded tenant count.
type HubConfig struct {
	// Defaults is the hub-wide engine configuration every tenant starts
	// from; Open's mutators override per tenant. Normalized per tenant at
	// Open time.
	Defaults Config
	// MaxTenants caps the number of simultaneously open tenants. Zero or
	// negative means unlimited.
	MaxTenants int
}

// NewHub returns an empty hub.
func NewHub(cfg HubConfig) *Hub {
	return &Hub{cfg: cfg, tenants: make(map[string]*Engine)}
}

// maxTenantNameLen bounds tenant names so they stay usable as URL path
// segments and log fields.
const maxTenantNameLen = 64

// ValidateTenantName reports whether name is usable as a tenant name:
// 1–64 characters drawn from letters, digits, '.', '_' and '-', excluding
// the path-traversal names "." and "..". The alphabet is exactly the
// URL-path-safe set the /v1/tenants/{name} wire surface routes on, so
// every openable tenant is addressable ("." and ".." would be rewritten
// away by HTTP path cleaning, leaving an unreachable tenant).
func ValidateTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("core: empty tenant name")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("core: tenant name %q not allowed", name)
	}
	if len(name) > maxTenantNameLen {
		return fmt.Errorf("core: tenant name longer than %d bytes", maxTenantNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("core: tenant name %q: invalid byte %q", name, c)
		}
	}
	return nil
}

// Open returns the named tenant's engine, creating it on first use
// (create-or-get). A new tenant's config is the hub's Defaults with the
// given mutators applied on top; for an existing tenant the mutators are
// ignored — the first Open wins, so concurrent racers agree on one engine.
//
//enblogue:acquires hub
func (h *Hub) Open(name string, mutate ...func(*Config)) (*Engine, error) {
	if err := ValidateTenantName(name); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("core: hub is closed")
	}
	if e, ok := h.tenants[name]; ok {
		return e, nil
	}
	if h.cfg.MaxTenants > 0 && len(h.tenants) >= h.cfg.MaxTenants {
		return nil, fmt.Errorf("core: tenant limit %d reached", h.cfg.MaxTenants)
	}
	cfg := h.cfg.Defaults
	for _, m := range mutate {
		if m != nil {
			m(&cfg)
		}
	}
	if cfg.Durability.Dir != "" {
		// Each tenant persists under its own subdirectory; tenant names are
		// validated above to the URL-path-safe alphabet, so the join cannot
		// escape the hub's data directory. Reopening a name after a restart
		// therefore recovers that tenant's prior state inside New.
		cfg.Durability.Dir = filepath.Join(cfg.Durability.Dir, name)
	}
	e := New(cfg) // New normalizes, so overrides cannot wedge the engine
	h.tenants[name] = e
	return e, nil
}

// Get returns the named tenant's engine without creating it.
//
//enblogue:acquires hub
func (h *Hub) Get(name string) (*Engine, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.tenants[name]
	return e, ok
}

// List returns the open tenant names, sorted.
//
//enblogue:acquires hub
func (h *Hub) List() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.tenants))
	//enblogue:unordered collect-then-sort: the names are sorted before returning
	for name := range h.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of open tenants.
//
//enblogue:acquires hub
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.tenants)
}

// CloseTenant removes the named tenant and closes its engine's broker
// (draining in-flight deliveries and closing every subscription channel).
// It reports whether the tenant existed. The engine close runs outside the
// hub lock — a subscriber callback may call back into the hub freely.
//
//enblogue:acquires hub
func (h *Hub) CloseTenant(name string) bool {
	h.mu.Lock()
	e, ok := h.tenants[name]
	delete(h.tenants, name)
	h.mu.Unlock()
	if ok {
		e.Close()
	}
	return ok
}

// snapshot returns the current engines outside any lock, so hub-wide
// operations that block on broker drains cannot deadlock with subscriber
// callbacks re-entering the hub.
//
//enblogue:acquires hub
func (h *Hub) snapshot() []*Engine {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Engine, 0, len(h.tenants))
	//enblogue:unordered collects the engine set; per-tenant engines are independent, no cross-tenant state orders them
	for _, e := range h.tenants {
		out = append(out, e)
	}
	return out
}

// Flush flushes every open tenant: each runs a final evaluation tick at its
// own last observed event time and blocks until its published rankings are
// delivered, sinks included (see Engine.Flush).
func (h *Hub) Flush() {
	for _, e := range h.snapshot() {
		e.Flush()
	}
}

// Close closes every tenant's engine and marks the hub closed: subsequent
// Opens fail, and the registry empties. Tenants flushing final state should
// be Flushed first. Idempotent.
//
//enblogue:acquires hub
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	engines := make([]*Engine, 0, len(h.tenants))
	//enblogue:unordered collects engines for shutdown; close order between independent tenants is immaterial
	for _, e := range h.tenants {
		engines = append(engines, e)
	}
	h.tenants = make(map[string]*Engine)
	h.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}

// HubStats aggregates engine counters across all open tenants.
type HubStats struct {
	Tenants         int
	DocsProcessed   int64
	ActivePairs     int
	Subscribers     int
	RankingsDropped int64
}

// Stats returns hub-wide aggregate counters.
func (h *Hub) Stats() HubStats {
	engines := h.snapshot()
	s := HubStats{Tenants: len(engines)}
	for _, e := range engines {
		s.DocsProcessed += e.DocsProcessed()
		s.ActivePairs += e.ActivePairs()
		s.Subscribers += e.Subscribers()
		s.RankingsDropped += e.RankingsDropped()
	}
	return s
}
