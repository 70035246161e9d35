package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"enblogue/internal/stream"
)

func TestHubOpenCreateOrGet(t *testing.T) {
	h := NewHub(HubConfig{Defaults: Config{TopK: 7}})
	defer h.Close()

	a, err := h.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().TopK != 7 {
		t.Errorf("tenant TopK = %d, want hub default 7", a.Config().TopK)
	}
	// Second Open returns the same engine; overrides on a get are ignored.
	a2, err := h.Open("alpha", func(c *Config) { c.TopK = 99 })
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Error("Open(existing) returned a different engine")
	}
	if a2.Config().TopK != 7 {
		t.Errorf("get-side overrides applied: TopK = %d", a2.Config().TopK)
	}
	// Per-tenant overrides layer over hub defaults on creation.
	b, err := h.Open("beta", func(c *Config) { c.TopK = 3 })
	if err != nil {
		t.Fatal(err)
	}
	if b.Config().TopK != 3 {
		t.Errorf("override not applied: TopK = %d", b.Config().TopK)
	}
	if got := h.List(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("List = %v", got)
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
	if e, ok := h.Get("alpha"); !ok || e != a {
		t.Error("Get(alpha) did not return the open engine")
	}
	if _, ok := h.Get("ghost"); ok {
		t.Error("Get(ghost) reported an unopened tenant")
	}
}

func TestHubTenantNameValidation(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "tenant\n", "ünïcode",
		string(make([]byte, maxTenantNameLen+1))} {
		if _, err := h.Open(bad); err == nil {
			t.Errorf("Open(%q) accepted an invalid name", bad)
		}
	}
	for _, good := range []string{"a", "tweets", "EU-west_1", "v2.archive"} {
		if _, err := h.Open(good); err != nil {
			t.Errorf("Open(%q): %v", good, err)
		}
	}
}

func TestHubMaxTenants(t *testing.T) {
	h := NewHub(HubConfig{MaxTenants: 2})
	defer h.Close()
	if _, err := h.Open("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Open("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Open("c"); err == nil {
		t.Fatal("third tenant exceeded MaxTenants without error")
	}
	// Re-opening an existing tenant is a get, not a new tenant.
	if _, err := h.Open("a"); err != nil {
		t.Errorf("Open(existing) at the limit: %v", err)
	}
	// Closing one frees a slot.
	if !h.CloseTenant("b") {
		t.Fatal("CloseTenant(b) = false")
	}
	if _, err := h.Open("c"); err != nil {
		t.Errorf("Open after CloseTenant: %v", err)
	}
}

func TestHubCloseTenantAndClose(t *testing.T) {
	h := NewHub(HubConfig{})
	a, _ := h.Open("a")
	sub := a.Subscribe(nil)
	if h.CloseTenant("ghost") {
		t.Error("CloseTenant(ghost) = true")
	}
	if !h.CloseTenant("a") {
		t.Fatal("CloseTenant(a) = false")
	}
	// The tenant's broker is closed, and CloseTenant closed its
	// subscription channel before returning.
	select {
	case _, ok := <-sub.Notifications():
		if ok {
			t.Error("subscription delivered after CloseTenant")
		}
	default:
		t.Fatal("subscription not closed by CloseTenant")
	}
	if h.Len() != 0 {
		t.Errorf("Len after CloseTenant = %d", h.Len())
	}

	h.Close()
	if _, err := h.Open("b"); err == nil {
		t.Error("Open succeeded on a closed hub")
	}
	h.Close() // idempotent
}

// Two tenants fed different streams stay fully isolated: each tenant's
// counters and rankings reflect only its own items.
func TestHubTenantIsolation(t *testing.T) {
	h := NewHub(HubConfig{Defaults: Config{
		WindowBuckets: 12, WindowResolution: time.Hour,
		SeedCount: 10, SeedWarmupDocs: 10, MinCooccurrence: 2, TopK: 5, Shards: 2,
	}})
	defer h.Close()
	a, _ := h.Open("a")
	b, _ := h.Open("b")

	id := 0
	feed := func(e *Engine, hr, mi int, tags ...string) {
		id++
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(hr)*time.Hour + time.Duration(mi)*time.Minute),
			DocID: fmt.Sprintf("d-%04d", id),
			Tags:  tags,
		})
	}
	for hr := 0; hr < 4; hr++ {
		for mi := 0; mi < 60; mi += 5 {
			feed(a, hr, mi, "news", "alpha-topic")
			feed(b, hr, mi, "news", "beta-topic")
			feed(b, hr, mi, "beta-only", "beta-topic")
		}
	}
	h.Flush()

	if got, want := a.DocsProcessed(), int64(4*12); got != want {
		t.Errorf("tenant a docs = %d, want %d", got, want)
	}
	if got, want := b.DocsProcessed(), int64(4*12*2); got != want {
		t.Errorf("tenant b docs = %d, want %d", got, want)
	}
	for _, topic := range a.CurrentRanking().Topics {
		t1, t2 := topic.Pair.Tags()
		if t1 == "beta-topic" || t2 == "beta-topic" || t1 == "beta-only" || t2 == "beta-only" {
			t.Errorf("tenant a ranked tenant b's pair %v", topic.Pair)
		}
	}
	s := h.Stats()
	if s.Tenants != 2 || s.DocsProcessed != a.DocsProcessed()+b.DocsProcessed() {
		t.Errorf("hub stats = %+v", s)
	}
}

// Hammer Open / Get / Consume / CloseTenant / Stats concurrently across
// tenants — the registry's locking must hold up under -race.
func TestHubConcurrentOpenCloseConsume(t *testing.T) {
	h := NewHub(HubConfig{Defaults: Config{
		WindowBuckets: 6, WindowResolution: time.Hour,
		SeedCount: 5, SeedWarmupDocs: 5, TopK: 5, Shards: 2,
	}})
	defer h.Close()

	const (
		workers = 8
		iters   = 200
		names   = 5
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("t%d", (w+i)%names)
				e, err := h.Open(name)
				if err != nil {
					t.Errorf("Open(%s): %v", name, err)
					return
				}
				e.Consume(&stream.Item{
					Time:  t0.Add(time.Duration(i) * time.Minute),
					DocID: fmt.Sprintf("w%d-i%d", w, i),
					Tags:  []string{"a", fmt.Sprintf("b%d", i%7)},
				})
				switch i % 20 {
				case 7:
					h.CloseTenant(name)
				case 13:
					_ = h.Stats()
					_ = h.List()
				case 17:
					if e, ok := h.Get(name); ok {
						_ = e.CurrentRanking()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Len() > names {
		t.Errorf("Len = %d, want <= %d", h.Len(), names)
	}
}
