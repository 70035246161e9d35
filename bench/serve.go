package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"enblogue"
	"enblogue/internal/history"
	"enblogue/internal/pairs"
	"enblogue/internal/server"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
)

// serveTenant is the tenant the serve workload creates over the wire.
const serveTenant = "bench"

// hubOpener adapts the public hub to the server's tenant engine factory,
// exactly as cmd/enblogue-server does.
type hubOpener struct{ hub *enblogue.Hub }

func (o hubOpener) Open(name string) (server.Engine, error) { return o.hub.Open(name) }
func (o hubOpener) CloseTenant(name string) bool            { return o.hub.CloseTenant(name) }

// serveRig is cmd/enblogue-server's wiring minus the demo replay — a hub
// with the command's defaults, the server following the default tenant
// with a history attached, the opener enabling tenants over the wire —
// listening on real loopback TCP.
type serveRig struct {
	hub  *enblogue.Hub
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

func startServeRig(w *workload) (*serveRig, error) {
	opts := append([]enblogue.Option{
		enblogue.WithTickEvery(w.Stream.TickEvery),
		enblogue.WithSeedCount(w.Stream.SeedCount),
	}, w.Opts("")...)
	rig := &serveRig{hub: enblogue.NewHub(enblogue.HubDefaults(opts...)), done: make(chan error, 1)}
	engine, err := rig.hub.Open(server.DefaultTenant)
	if err != nil {
		return nil, fmt.Errorf("default tenant: %w", err)
	}
	rig.srv = server.New()
	rig.srv.SetTenantHistoryTicks(10000)
	rig.srv.AttachHistory(history.New(10000))
	rig.srv.AttachOpener(hubOpener{rig.hub})
	rig.srv.Follow(engine)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	rig.base = "http://" + ln.Addr().String()
	rig.http = &http.Server{Handler: rig.srv.Handler()}
	go func() { rig.done <- rig.http.Serve(ln) }()
	return rig, nil
}

// stop shuts the rig down in the command's order and waits for the
// listener goroutine.
func (r *serveRig) stop() {
	r.srv.Close()
	r.hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.http.Shutdown(ctx) // parked SSE handlers already ended with the tenants
	<-r.done
}

// frameView is the part of a /v1 RankingView frame the harness checks.
type frameView struct {
	At     time.Time `json:"at"`
	Topics []struct {
		Tag1  string  `json:"tag1"`
		Tag2  string  `json:"tag2"`
		Score float64 `json:"score"`
	} `json:"topics"`
}

// serveRun drives the serve workload: one keep-alive POST connection, one
// SSE connection.
type serveRun struct {
	account
	w      *workload
	rig    *serveRig
	client *http.Client
	items  string // POST …/items URL

	frames    atomic.Int64 // frames logged by the SSE goroutine
	frameBy   atomic.Int64 // bytes of frame payload received
	sseDone   chan error
	sseCancel context.CancelFunc

	body     []byte // reusable JSONL buffer
	requests int64
	non2xx   int64
	skipped  int64
	short    int64 // documents a response did not account for
}

func newServeRun(w *workload, gen *generator) (*serveRun, error) {
	rig, err := startServeRig(w)
	if err != nil {
		return nil, err
	}
	s := &serveRun{
		account: newAccount(gen), w: w, rig: rig,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		items:  rig.base + "/v1/tenants/" + serveTenant + "/items",
	}
	if err := s.post(rig.base+"/v1/tenants", []byte(`{"name":"`+serveTenant+`"}`), http.StatusCreated, nil); err != nil {
		rig.stop()
		return nil, err
	}
	for i := 0; i < servePersonas; i++ {
		p := map[string]any{"name": "persona-" + strconv.Itoa(i), "keywords": gen.subscriberTags(), "boost": 2}
		raw, err := json.Marshal(p)
		if err != nil {
			rig.stop()
			return nil, fmt.Errorf("encoding profile: %w", err)
		}
		if err := s.post(rig.base+"/v1/tenants/"+serveTenant+"/profiles", raw, http.StatusCreated, nil); err != nil {
			rig.stop()
			return nil, err
		}
	}
	if err := s.openStream(); err != nil {
		rig.stop()
		return nil, err
	}
	return s, nil
}

// post sends body and decodes the response into out (when non-nil),
// failing on any status but want.
func (s *serveRun) post(url string, body []byte, want int, out any) error {
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return fmt.Errorf("POST %s: status %d, want %d", url, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("POST %s: decoding response: %w", url, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// openStream connects the SSE client and starts the goroutine that stamps
// and logs every frame.
func (s *serveRun) openStream() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.rig.base+"/v1/tenants/"+serveTenant+"/stream", nil)
	if err != nil {
		cancel()
		return err
	}
	// Its own transport: the stream parks a connection for the whole run.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return fmt.Errorf("opening stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("opening stream: status %d", resp.StatusCode)
	}
	s.sseCancel, s.sseDone = cancel, make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		rd := newSSEReader(resp.Body)
		var topics []shift.Topic
		for {
			payload, err := rd.next()
			if err != nil {
				s.sseDone <- err
				return
			}
			arrive := int64(time.Since(s.t0))
			var f frameView
			if err := json.Unmarshal(payload, &f); err != nil {
				s.sseDone <- fmt.Errorf("bad frame: %w", err)
				return
			}
			topics = topics[:0]
			for _, t := range f.Topics {
				topics = append(topics, shift.Topic{Pair: pairs.MakeKey(t.Tag1, t.Tag2), Score: t.Score})
			}
			s.log.add(f.At, arrive, topics)
			s.frameBy.Add(int64(len(payload)))
			s.frames.Add(1)
		}
	}()
	return nil
}

// waitFrames waits until every expected frame has arrived, or gives up:
// the hub drops frames for a client that falls behind, so a missing frame
// is a counted failure, not a hang.
func (s *serveRun) waitFrames() {
	deadline := time.Now().Add(2 * time.Second)
	for s.frames.Load() < s.expect && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// closeStream disconnects the SSE client and waits for its goroutine, after
// which the log is safe to read. It returns why the stream ended, nil when
// this call ended it.
func (s *serveRun) closeStream() error {
	if s.sseCancel == nil {
		return nil
	}
	select {
	case err := <-s.sseDone: // ended on its own, before being asked to
		s.sseCancel()
		s.sseCancel = nil
		return err
	default:
	}
	s.sseCancel()
	<-s.sseDone
	s.sseCancel = nil
	return nil
}

func (s *serveRun) stop() {
	_ = s.closeStream() // a run that got this far has already looked at it
	s.client.CloseIdleConnections()
	s.rig.stop()
}

// render writes one interval's documents as the JSONL body of a POST.
func (s *serveRun) render(docs []*stream.Item) []byte {
	s.body = appendJSONL(s.body[:0], docs)
	return s.body
}

// send POSTs one rendered body and checks that the response accounts for
// every document.
func (s *serveRun) send(body []byte, docs int) {
	var view server.IngestView
	s.requests++
	if err := s.post(s.items, body, http.StatusOK, &view); err != nil {
		s.non2xx++
		return
	}
	s.skipped += int64(view.Skipped)
	if view.Consumed != docs {
		s.short += int64(docs - view.Consumed)
	}
}

// maxFramesBehind is how many tick frames the closed-loop producer lets
// the SSE client fall behind before it holds the next body back. The hub
// keeps eight frames per client and drops the rest ("slow clients drop
// frames rather than stalling the broadcaster"); when the sandbox stalls
// the client's processor for a few milliseconds, back-to-back POSTs would
// otherwise run past that and lose frames the checks then miss. In an
// undisturbed run the client is never more than a frame or two behind, so
// the hold-back costs nothing.
const maxFramesBehind = 4

// closedPass sends one pass back to back: each body is one evaluation
// interval, so its first document fires a tick.
func (s *serveRun) closedPass() {
	for _, docs := range s.gen.intervals(s.nextItems()) {
		for s.expect-s.frames.Load() >= maxFramesBehind {
			time.Sleep(50 * time.Microsecond)
		}
		body := s.render(docs)
		s.mark(docs, int64(time.Since(s.t0)))
		s.send(body, len(docs))
	}
}

// openPass sends one pass on the fixed schedule, marking each tick with the
// time its body was due. Bodies are rendered ahead of their due time.
func (s *serveRun) openPass() (late []time.Duration) {
	period := time.Duration(float64(s.w.Stream.DocsPerTick) / serveOpenDocsPerSec * float64(time.Second))
	bodies := s.gen.intervals(s.nextItems())
	body := s.render(bodies[0])
	loop := openLoop{Period: period}
	return loop.run(time.Now().Add(period), len(bodies), func(i int, due time.Time) {
		s.mark(bodies[i], int64(due.Sub(s.t0)))
		s.send(body, len(bodies[i]))
		if i+1 < len(bodies) {
			body = s.render(bodies[i+1])
		}
	})
}

// overLimit counts the notify latencies (ms) beyond the serve limit.
func overLimit(latencies []float64) (n int64) {
	for _, l := range latencies {
		if l > float64(serveLatencyLimit)/1e6 {
			n++
		}
	}
	return n
}

// latenessP99 is the 99th percentile, in ms, of how late the open-loop
// generator sent.
func latenessP99(late []time.Duration) float64 {
	ms := make([]float64, len(late))
	for i, l := range late {
		ms[i] = float64(l) / 1e6
	}
	sort.Float64s(ms)
	return percentile(ms, 99)
}

// appendJSONL renders documents in the cmd/datagen wire format, one per
// line, into a reused buffer. It stands in for source.WriteJSONL because
// rendering is on the load generator's clock between two requests:
// encoding/json would cost the closed loop several percent of its rate.
// Generated IDs and tags are plain ASCII; strconv.AppendQuote keeps the
// output valid JSON regardless.
func appendJSONL(dst []byte, docs []*stream.Item) []byte {
	for _, d := range docs {
		dst = append(dst, `{"time":"`...)
		dst = d.Time.AppendFormat(dst, time.RFC3339Nano)
		dst = append(dst, `","id":`...)
		dst = strconv.AppendQuote(dst, d.DocID)
		dst = append(dst, `,"tags":[`...)
		for i, t := range d.Tags {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendQuote(dst, t)
		}
		dst = append(dst, `],"source":`...)
		dst = strconv.AppendQuote(dst, d.Source)
		dst = append(dst, "}\n"...)
	}
	return dst
}

// setUpServe is one complete set-up of the serve workload: inputs, the rig
// on loopback, tenant and personas over the wire, the SSE client, and the
// warm-up passes. base is the live heap after input generation.
func setUpServe(w *workload, seed int64) (s *serveRun, base float64, took time.Duration, err error) {
	start := time.Now()
	gen := newGenerator(w.Stream, seed)
	base = liveHeapMB()
	if s, err = newServeRun(w, gen); err != nil {
		return nil, 0, 0, err
	}
	for i := 0; i < w.Warm; i++ {
		s.closedPass()
	}
	s.waitFrames()
	runtime.GC()
	return s, base, time.Since(start), nil
}

// runServe is the untraced run of the serve workload: set-up, a closed
// phase of back-to-back bodies for throughput, then an open phase on the
// fixed schedule for POST-to-SSE latency.
func runServe(w *workload, o options) (*result, error) {
	res := newResult(w, o)
	var s *serveRun
	var base float64
	var setups []float64
	for i := 0; i < o.setupRuns(); i++ {
		if s != nil {
			s.stop()
		}
		var took time.Duration
		var err error
		if s, base, took, err = setUpServe(w, o.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer s.stop()
	firstPass := s.nextPass
	firstTick := s.nextPass * w.Stream.PassTicks

	// Closed phase: a chunk is one pass of back-to-back bodies.
	closedFor := o.Seconds * serveClosedShare
	var chunks []chunkStat
	docs0, frames0 := s.docs, s.frames.Load()
	start := time.Now()
	for len(chunks) < o.minChunks() || time.Since(start).Seconds() < closedFor {
		cpu0, c0, d0 := cpuTime(), time.Now(), s.docs
		s.closedPass()
		chunks = append(chunks, chunkStat{Ns: float64(time.Since(c0)), Docs: s.docs - d0, CPUNs: int64(cpuTime() - cpu0)})
	}
	s.waitFrames()
	closedDocs, closedFrames := s.docs-docs0, s.frames.Load()-frames0

	// Open phase: passes on the fixed schedule.
	openTick := s.nextPass * w.Stream.PassTicks
	var late []time.Duration
	var open []chunkStat
	for start := time.Now(); len(open) < o.minChunks()/2 || time.Since(start).Seconds() < o.Seconds-closedFor; {
		first := s.nextPass * w.Stream.PassTicks
		late = append(late, s.openPass()...)
		s.waitFrames()
		open = append(open, chunkStat{FirstTick: first, EndTick: s.nextPass * w.Stream.PassTicks})
	}
	heap := liveHeapMB() - base
	streamErr := s.closeStream()

	// Output checks.
	if s.non2xx > 0 {
		res.fail(s.non2xx, "%d of %d requests failed", s.non2xx, s.requests)
	}
	if s.skipped > 0 || s.short > 0 {
		res.fail(s.skipped+s.short, "responses skipped %d documents and left %d unaccounted for", s.skipped, s.short)
	}
	if got := s.frames.Load(); got != s.expect {
		res.fail(s.expect-got, "SSE client saw %d of %d tick frames", got, s.expect)
	}
	if streamErr != nil {
		res.fail(1, "SSE stream ended early: %v", streamErr)
	}
	det := s.log.detect(s.regionHappenings(firstTick), w.Stream.TickEvery)
	if m := len(det.Missed); m > 0 {
		res.sized(w, int64(m), "%d of %d happenings never reached the top-k: %v", m, det.Attempted, det.Missed)
	}
	// A late frame is a failed operation but not a wrong output.
	all := s.latencies(openTick, len(s.submit))
	lateFrames := overLimit(all)
	res.Failed += lateFrames
	res.Attempted = (s.docs - docs0) + s.requests + (s.frames.Load() - frames0) + int64(det.Attempted)

	// The best of the closed phase's parts and of the open phase's (see
	// regionParts). CPU is taken over the closed phase alone: in the open
	// phase the process mostly idles or spins on the schedule's clock.
	parts := cutParts(chunks, regionParts)
	rates, cpus := each(parts, chunkStat.rate), each(parts, chunkStat.cpu)
	lats := s.partLatencies(cutParts(open, regionParts))
	rate := slices.Max(rates)
	res.e2e("setup_s", median(setups))
	res.e2e("docs_per_s", rate)
	res.e2e("cpu_us_per_doc", slices.Min(cpus))
	res.e2e("heap_mb", heap)
	res.e2e("notify_p50_ms", slices.Min(lats))
	res.e2e("notifs_per_s", rate*float64(closedFrames)/float64(closedDocs))
	res.e2e("detect_lag_ticks", mean(det.Lags))

	timingInfo(res, chunks, rates, cpus, lats, setups, all)
	res.Info["late_frames"] = lateFrames
	res.Info["gen_late_p99_ms"] = latenessP99(late)
	res.Info["open_rate_docs_per_s"] = serveOpenDocsPerSec
	res.Info["docs"] = s.docs - docs0
	res.Info["ticks"] = s.log.len()
	res.Info["hash"] = s.log.hash(s.hashUntil(firstPass))
	res.Info["happenings"] = det.Attempted
	res.Info["frame_bytes"] = float64(s.frameBy.Load()) / float64(max(s.frames.Load(), 1))
	return res, nil
}
