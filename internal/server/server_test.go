package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/pairs"
	"enblogue/internal/shift"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func sampleRanking() core.Ranking {
	return core.Ranking{
		At:    t0,
		Seeds: []string{"politics"},
		Topics: []shift.Topic{
			{Pair: pairs.MakeKey("politics", "scandal"), Score: 0.9, Correlation: 0.4, Cooccurrence: 12},
			{Pair: pairs.MakeKey("iceland", "volcano"), Score: 0.5, Correlation: 0.3, Cooccurrence: 8},
		},
	}
}

func TestHubBroadcastAndLateJoin(t *testing.T) {
	h := NewHub()
	if err := h.Broadcast(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if h.last == nil {
		t.Fatal("last frame nil after broadcast")
	}
	ch := h.subscribe()
	defer h.unsubscribe(ch)
	select {
	case frame := <-ch:
		if !bytes.Contains(frame, []byte(`"x":1`)) {
			t.Errorf("late-join frame = %s", frame)
		}
	default:
		t.Fatal("late joiner did not receive retained frame")
	}
	if h.ClientCount() != 1 {
		t.Errorf("ClientCount = %d", h.ClientCount())
	}
}

func TestHubSlowClientDropsFrames(t *testing.T) {
	h := NewHub()
	ch := h.subscribe()
	defer h.unsubscribe(ch)
	// Flood past the buffer; must not block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			h.Broadcast(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second): // a failure bound: a blocked Broadcast never returns
		t.Fatal("broadcast blocked on slow client")
	}
}

func TestHubBroadcastUnmarshalable(t *testing.T) {
	h := NewHub()
	if err := h.Broadcast(func() {}); err == nil {
		t.Error("expected marshal error")
	}
}

func TestRankingEndpoint(t *testing.T) {
	s := New()
	s.PublishRanking(sampleRanking())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/rankings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view RankingView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Topics) != 2 || view.Topics[0].Tag2 != "scandal" || view.Topics[0].Rank != 1 {
		t.Errorf("view = %+v", view)
	}
	// First publish: both topics are new entries in the move list.
	if len(view.Moves) != 2 {
		t.Errorf("moves = %+v", view.Moves)
	}
}

func TestProfileEndpointsAndPersonalizedViews(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"name":"alice","keywords":["volcano"],"boost":10,"exclusive":true}`
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("profile POST status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []ProfileView
	json.NewDecoder(resp.Body).Decode(&profiles)
	resp.Body.Close()
	if len(profiles) != 1 || profiles[0].Name != "alice" {
		t.Errorf("profiles = %v", profiles)
	}

	s.PublishRanking(sampleRanking())
	resp, err = http.Get(ts.URL + "/v1/rankings")
	if err != nil {
		t.Fatal(err)
	}
	var view RankingView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	alice := view.Profiles["alice"]
	if len(alice) != 1 || alice[0].Tag2 != "volcano" {
		t.Errorf("alice view = %+v", alice)
	}
}

func TestProfileValidation(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Missing name.
	resp, _ := http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(`{}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless profile status = %d", resp.StatusCode)
	}
	// Bad JSON.
	resp, _ = http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(`{`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
}

func TestSSEStreamDeliversFrames(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A failure bound, not a wait: the frame is published before the read.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// The handler subscribed before sending the headers just received.
	s.PublishRanking(sampleRanking())

	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("frame = %q", line)
	}
	var view RankingView
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Topics) != 2 {
		t.Errorf("streamed view = %+v", view)
	}
}

// stalledWriter is an SSE client that has stopped reading: the first frame
// write blocks until release is closed. Every frame written after that is
// passed on through frames.
type stalledWriter struct {
	header  http.Header
	hub     *Hub
	clients int           // the hub's client count when the headers went out
	opened  chan struct{} // closed when the response headers are written
	stalled chan struct{} // closed once the first frame write blocks
	release chan struct{}
	frames  chan []byte
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) WriteHeader(int) {
	w.clients = w.hub.ClientCount()
	close(w.opened)
}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	w.frames <- append([]byte(nil), p...)
	return len(p), nil
}

// A stalled SSE client holds one frame in its blocked write and eight in
// its hub buffer; every further frame broadcast to it pushes out the
// oldest queued one, and /v1/stats counts exactly those. Once released,
// the client reads the newest eight, ending on the final tick.
func TestStatsCountsFramesDroppedForStalledClient(t *testing.T) {
	s := New()
	h := s.Handler()
	w := &stalledWriter{header: http.Header{}, hub: s.defaultTenant().hub,
		opened: make(chan struct{}), stalled: make(chan struct{}), release: make(chan struct{}),
		frames: make(chan []byte, 16)}
	release := sync.OnceFunc(func() { close(w.release) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stream", nil).WithContext(ctx))
	}()
	defer func() { release(); cancel(); <-done }()

	<-w.opened
	if w.clients != 1 {
		t.Fatalf("hub had %d clients when the headers went out; the handler must subscribe first", w.clients)
	}
	tick := func(i int) core.Ranking {
		r := sampleRanking()
		r.At = t0.Add(time.Duration(i) * time.Hour)
		return r
	}
	s.PublishRanking(tick(0))
	<-w.stalled
	const n = 20
	for i := 1; i <= n; i++ {
		s.PublishRanking(tick(i))
	}
	var st StatsView
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if want := int64(n - 8); st.FramesDropped != want {
		t.Errorf("framesDropped = %d, want %d (%d frames beyond the 8-frame buffer)", st.FramesDropped, want, want)
	}

	release()
	var last RankingView
	for i := 0; i < 9; i++ { // the blocked frame, then the eight buffered
		data, ok := strings.CutPrefix(string(<-w.frames), "data: ")
		if !ok {
			t.Fatalf("frame %d is not an SSE data line", i)
		}
		if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &last); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if want := tick(n).At; !last.At.Equal(want) {
		t.Errorf("released client's last frame is at %v, want the final tick at %v", last.At, want)
	}
}

func TestIndexPage(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "EventSource") {
		t.Error("index page missing EventSource client")
	}
	// Unknown path 404s.
	resp2, _ := http.Get(ts.URL + "/nope")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp2.StatusCode)
	}
}

func TestMovesAcrossTicks(t *testing.T) {
	s := New()
	s.PublishRanking(sampleRanking())
	// Second tick: order flips.
	r2 := sampleRanking()
	r2.Topics[0], r2.Topics[1] = r2.Topics[1], r2.Topics[0]
	r2.Topics[0].Score = 2.0
	s.PublishRanking(r2)
	def := s.defaultTenant()
	def.mu.Lock()
	moves := def.lastView.Moves
	def.mu.Unlock()
	if len(moves) != 2 {
		t.Fatalf("moves = %+v", moves)
	}
	if moves[0].ID != "iceland+volcano" || moves[0].To != 0 || moves[0].From != 1 {
		t.Errorf("move = %+v", moves[0])
	}
}
