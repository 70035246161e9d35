package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/source"
)

// hubOpener adapts a core.Hub to the server's Opener interface, exactly as
// cmd/enblogue-server adapts the public enblogue.Hub.
type hubOpener struct{ hub *core.Hub }

func (o hubOpener) Open(name string) (Engine, error) { return o.hub.Open(name) }
func (o hubOpener) CloseTenant(name string) bool     { return o.hub.CloseTenant(name) }

func testHubDefaults() core.Config {
	return core.Config{
		WindowBuckets:    6,
		WindowResolution: time.Hour,
		SeedCount:        10,
		SeedWarmupDocs:   5,
		MinCooccurrence:  2,
		TopK:             5,
		Shards:           2,
	}
}

func testHub() *core.Hub {
	return core.NewHub(core.HubConfig{Defaults: testHubDefaults()})
}

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, path, nil))
	return w
}

func TestTenantLifecycleOverWire(t *testing.T) {
	hub := testHub()
	defer hub.Close()
	s := New()
	defer s.Close()
	s.AttachOpener(hubOpener{hub})
	h := s.Handler()

	// Create.
	w := postJSON(t, h, "/v1/tenants", `{"name":"tweets"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/tenants = %d: %s", w.Code, w.Body)
	}
	var tv TenantView
	if err := json.Unmarshal(w.Body.Bytes(), &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Name != "tweets" || tv.Created.IsZero() {
		t.Errorf("created view = %+v", tv)
	}
	// Create-or-get: second POST answers 200 with the same tenant.
	if w := postJSON(t, h, "/v1/tenants", `{"name":"tweets"}`); w.Code != http.StatusOK {
		t.Errorf("second POST = %d, want 200", w.Code)
	}
	// Invalid names — including the path-traversal names HTTP path
	// cleaning would make unreachable — are rejected before touching the
	// hub.
	for _, bad := range []string{`{"name":""}`, `{"name":"."}`, `{"name":".."}`,
		`{"name":"a/b"}`, `{"name":"a b"}`} {
		if w := postJSON(t, h, "/v1/tenants", bad); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", bad, w.Code)
		}
	}

	// List includes default and the new tenant, sorted.
	w = get(t, h, "/v1/tenants")
	var list []TenantView
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "default" || list[1].Name != "tweets" {
		t.Errorf("list = %+v", list)
	}
	// Per-tenant summary.
	if w := get(t, h, "/v1/tenants/tweets"); w.Code != http.StatusOK {
		t.Errorf("GET /v1/tenants/tweets = %d", w.Code)
	}
	if w := get(t, h, "/v1/tenants/ghost"); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown tenant = %d, want 404", w.Code)
	}

	// Delete: default is protected, others close for real.
	if w := del(t, h, "/v1/tenants/default"); w.Code != http.StatusBadRequest {
		t.Errorf("DELETE default = %d, want 400", w.Code)
	}
	if w := del(t, h, "/v1/tenants/tweets"); w.Code != http.StatusNoContent {
		t.Errorf("DELETE tweets = %d", w.Code)
	}
	if w := del(t, h, "/v1/tenants/tweets"); w.Code != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", w.Code)
	}
	if _, ok := hub.Get("tweets"); ok {
		t.Error("hub still holds the deleted tenant's engine")
	}
	if w := get(t, h, "/v1/tenants/tweets/rankings"); w.Code != http.StatusNotFound {
		t.Errorf("rankings after delete = %d, want 404", w.Code)
	}
}

func TestTenantCreateWithoutOpener(t *testing.T) {
	s := New()
	defer s.Close()
	h := s.Handler()
	if w := postJSON(t, h, "/v1/tenants", `{"name":"x"}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("POST without opener = %d, want 503", w.Code)
	}
	// Listing still works: the default tenant is always present.
	w := get(t, h, "/v1/tenants")
	var list []TenantView
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "default" {
		t.Errorf("list = %+v", list)
	}
}

// jsonlItems renders n documents as a JSONL ingest body: steady chatter
// plus a correlated pair, spanning enough event time to fire ticks.
func jsonlItems(t *testing.T, hours int) string {
	t.Helper()
	var sb strings.Builder
	id := 0
	for hr := 0; hr < hours; hr++ {
		for mi := 0; mi < 60; mi += 5 {
			id++
			fmt.Fprintf(&sb, `{"time":%q,"id":"d-%04d","tags":["news","politics"]}`+"\n",
				t0.Add(time.Duration(hr)*time.Hour+time.Duration(mi)*time.Minute).Format(time.RFC3339), id)
		}
	}
	return sb.String()
}

func TestTenantIngestEndToEnd(t *testing.T) {
	hub := testHub()
	defer hub.Close()
	s := New()
	defer s.Close()
	s.AttachOpener(hubOpener{hub})
	h := s.Handler()

	if w := postJSON(t, h, "/v1/tenants", `{"name":"news"}`); w.Code != http.StatusCreated {
		t.Fatalf("create tenant = %d", w.Code)
	}
	// Ingest six hours of documents, one malformed line mixed in.
	body := jsonlItems(t, 6) + "{not json}\n"
	w := postJSON(t, h, "/v1/tenants/news/items", body)
	if w.Code != http.StatusOK {
		t.Fatalf("POST items = %d: %s", w.Code, w.Body)
	}
	var iv IngestView
	if err := json.Unmarshal(w.Body.Bytes(), &iv); err != nil {
		t.Fatal(err)
	}
	if iv.Consumed != 6*12 || iv.Skipped != 1 || iv.DocsProcessed != int64(iv.Consumed) {
		t.Errorf("ingest view = %+v, want 72 consumed, 1 skipped", iv)
	}

	// The engine is the hub's: once its Flush returns, the tenant's feed
	// has published the final tick.
	e, ok := hub.Get("news")
	if !ok {
		t.Fatal("hub lost the tenant engine")
	}
	e.Flush()
	rankingAt(t, h, "/v1/tenants/news/rankings", e.CurrentRanking().At)

	// The tenant's automatic history ring recorded the ticks.
	w = get(t, h, "/v1/tenants/news/rankings/history?k=5")
	if w.Code != http.StatusOK {
		t.Fatalf("tenant history = %d: %s", w.Code, w.Body)
	}
	// The default tenant keeps the legacy contract: no history attached.
	if w := get(t, h, "/v1/rankings/history"); w.Code != http.StatusNotFound {
		t.Errorf("default history = %d, want 404 (legacy contract)", w.Code)
	}

	// Ingest into a tenant with no engine: the default tenant here.
	if w := postJSON(t, h, "/v1/tenants/default/items", body); w.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest without engine = %d, want 503", w.Code)
	}

	// An over-tagged document is skip-counted, not consumed and not fatal.
	tags := `"t0"`
	for i := 1; i <= maxIngestTagsPerDoc; i++ {
		tags += fmt.Sprintf(`,"t%d"`, i)
	}
	before := e.DocsProcessed()
	w = postJSON(t, h, "/v1/tenants/news/items",
		fmt.Sprintf(`{"time":"2011-06-12T07:00:00Z","id":"fat","tags":[%s]}`, tags)+"\n"+
			`{"time":"2011-06-12T07:00:01Z","id":"ok","tags":["a","b"]}`+"\n")
	if w.Code != http.StatusOK {
		t.Fatalf("mixed batch = %d", w.Code)
	}
	var iv2 IngestView
	if err := json.Unmarshal(w.Body.Bytes(), &iv2); err != nil {
		t.Fatal(err)
	}
	if iv2.Consumed != 1 || iv2.Skipped != 1 || e.DocsProcessed() != before+1 {
		t.Errorf("over-tagged doc handling = %+v (docs %d -> %d)", iv2, before, e.DocsProcessed())
	}
}

// TestTenantIngestBatchedParity pins the wire-level half of the batched
// determinism contract: a JSONL body fed through POST items (which
// consumes the whole request in one ConsumeBatch) must leave the tenant's
// engine with exactly the ranking a per-document Consume loop over the
// same stream produces — and the stats view must still carry the v1
// ingest gauges, pinned at zero.
func TestTenantIngestBatchedParity(t *testing.T) {
	hub := testHub()
	defer hub.Close()
	s := New()
	defer s.Close()
	s.AttachOpener(hubOpener{hub})
	h := s.Handler()

	if w := postJSON(t, h, "/v1/tenants", `{"name":"wire"}`); w.Code != http.StatusCreated {
		t.Fatalf("create tenant = %d", w.Code)
	}
	body := jsonlItems(t, 8)
	if w := postJSON(t, h, "/v1/tenants/wire/items", body); w.Code != http.StatusOK {
		t.Fatalf("POST items = %d", w.Code)
	}
	e, ok := hub.Get("wire")
	if !ok {
		t.Fatal("hub lost the tenant engine")
	}
	e.Flush()
	got := e.CurrentRanking()

	// Reference: the same stream consumed one document at a time by an
	// engine built from the same hub defaults.
	ref := core.New(testHubDefaults())
	defer ref.Close()
	docs, skipped, err := source.ReadJSONL(strings.NewReader(body), false)
	if err != nil || skipped != 0 {
		t.Fatalf("re-parsing ingest body: %v (skipped %d)", err, skipped)
	}
	for i := range docs {
		ref.Consume(docs[i].Item())
	}
	ref.Flush()
	want := ref.CurrentRanking()

	if !got.At.Equal(want.At) || len(got.Topics) != len(want.Topics) {
		t.Fatalf("batched wire ingest ranking (at %v, %d topics) != serial (at %v, %d topics)",
			got.At, len(got.Topics), want.At, len(want.Topics))
	}
	for i := range want.Topics {
		if got.Topics[i].Pair != want.Topics[i].Pair || got.Topics[i].Score != want.Topics[i].Score {
			t.Fatalf("topic %d diverges: %+v vs %+v", i, got.Topics[i], want.Topics[i])
		}
	}

	// v1 never removes a field: the ingest gauges stay on the wire, always
	// zero, since the engine has no ingest queue.
	w := get(t, h, "/v1/tenants/wire/stats")
	var sv StatsView
	if err := json.Unmarshal(w.Body.Bytes(), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.IngestDepth != 0 || sv.IngestDropped != 0 {
		t.Errorf("(ingestDepth, ingestDropped) = (%d, %d), want (0, 0)", sv.IngestDepth, sv.IngestDropped)
	}
	if !strings.Contains(w.Body.String(), `"ingestDepth"`) ||
		!strings.Contains(w.Body.String(), `"ingestDropped"`) {
		t.Errorf("stats JSON missing ingest gauges: %s", w.Body)
	}
}

func TestTenantProfilesAndStatsIsolated(t *testing.T) {
	hub := testHub()
	defer hub.Close()
	s := New()
	defer s.Close()
	s.AttachOpener(hubOpener{hub})
	h := s.Handler()
	for _, name := range []string{"a", "b"} {
		if w := postJSON(t, h, "/v1/tenants", fmt.Sprintf(`{"name":%q}`, name)); w.Code != http.StatusCreated {
			t.Fatalf("create %s = %d", name, w.Code)
		}
	}

	if w := postJSON(t, h, "/v1/tenants/a/profiles", `{"name":"alice","keywords":["x"]}`); w.Code != http.StatusCreated {
		t.Fatalf("profile on a = %d", w.Code)
	}
	// Visible on tenant a only.
	if w := get(t, h, "/v1/tenants/a/profiles/alice"); w.Code != http.StatusOK {
		t.Errorf("a's profile = %d", w.Code)
	}
	if w := get(t, h, "/v1/tenants/b/profiles/alice"); w.Code != http.StatusNotFound {
		t.Errorf("b sees a's profile: %d", w.Code)
	}
	if w := get(t, h, "/v1/profiles/alice"); w.Code != http.StatusNotFound {
		t.Errorf("default sees a's profile: %d", w.Code)
	}

	// Per-tenant stats carry the tenant name, uptime, and isolated counters.
	var sa, sb StatsView
	if err := json.Unmarshal(get(t, h, "/v1/tenants/a/stats").Body.Bytes(), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(t, h, "/v1/tenants/b/stats").Body.Bytes(), &sb); err != nil {
		t.Fatal(err)
	}
	if sa.Tenant != "a" || sb.Tenant != "b" {
		t.Errorf("stats tenants = %q, %q", sa.Tenant, sb.Tenant)
	}
	if sa.Uptime < 0 || sb.Uptime < 0 {
		t.Errorf("negative uptimes: %v, %v", sa.Uptime, sb.Uptime)
	}
	if sa.Profiles != 1 || sb.Profiles != 0 {
		t.Errorf("profile counts = %d, %d; want 1, 0", sa.Profiles, sb.Profiles)
	}
	// The tenant-less stats alias answers for the default tenant.
	var sd StatsView
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &sd); err != nil {
		t.Fatal(err)
	}
	if sd.Tenant != DefaultTenant {
		t.Errorf("/v1/stats tenant = %q, want %q", sd.Tenant, DefaultTenant)
	}
}

// Feeding two followed tenants distinct rankings must keep their broadcast
// state, moves, and SSE hubs fully separate.
func TestTenantPublishIsolation(t *testing.T) {
	s := New()
	defer s.Close()
	ta := s.ensureTenant("a")
	tb := s.ensureTenant("b")
	ra := sampleRanking()
	s.publish(ta, ra)
	h := s.Handler()

	var va, vb RankingView
	if err := json.Unmarshal(get(t, h, "/v1/tenants/a/rankings").Body.Bytes(), &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(t, h, "/v1/tenants/b/rankings").Body.Bytes(), &vb); err != nil {
		t.Fatal(err)
	}
	if len(va.Topics) != 2 {
		t.Errorf("tenant a topics = %+v", va.Topics)
	}
	if !vb.At.IsZero() || len(vb.Topics) != 0 {
		t.Errorf("tenant b leaked a's ranking: %+v", vb)
	}
	if ta.hub.last == nil || tb.hub.last != nil {
		t.Error("SSE hubs not isolated between tenants")
	}
}
