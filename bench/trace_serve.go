package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/history"
	"enblogue/internal/persona"
	"enblogue/internal/server"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

// handlerRig is the serve wiring without the network: requests go straight
// into Handler().ServeHTTP with a recorder for the response.
type handlerRig struct {
	rig     *serveRig
	handler http.Handler
	gen     *generator
	body    []byte
}

func newHandlerRig(w *workload, seed int64) (*handlerRig, error) {
	rig, err := startServeRig(w)
	if err != nil {
		return nil, err
	}
	h := &handlerRig{rig: rig, handler: rig.srv.Handler(), gen: newGenerator(w.Stream, seed)}
	if code := h.do(http.MethodPost, "/v1/tenants", []byte(`{"name":"`+serveTenant+`"}`)); code != http.StatusCreated {
		rig.stop()
		return nil, fmt.Errorf("creating tenant through the handler: status %d", code)
	}
	for i := 0; i < servePersonas; i++ {
		p := fmt.Sprintf(`{"name":"persona-%d","keywords":["%s"],"boost":2}`, i, w.Stream.tagName(i))
		if code := h.do(http.MethodPost, "/v1/tenants/"+serveTenant+"/profiles", []byte(p)); code != http.StatusCreated {
			rig.stop()
			return nil, fmt.Errorf("registering a profile through the handler: status %d", code)
		}
	}
	return h, nil
}

// do runs one request through the handler and returns the status.
func (h *handlerRig) do(method, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code
}

// pass POSTs pass p's interval bodies through the handler, timing each
// call when tr is set. It returns the number of non-200 responses.
func (h *handlerRig) pass(p int, tr *tracer, parent int32) (bad int) {
	items, _ := h.gen.pass(p)
	for _, docs := range h.gen.intervals(items) {
		h.body = appendJSONL(h.body[:0], docs)
		id := int32(-1)
		if tr != nil {
			id = tr.begin("server.handler", parent)
		}
		code := h.do(http.MethodPost, "/v1/tenants/"+serveTenant+"/items", h.body)
		if tr != nil {
			tr.end(id, int64(len(docs)))
		}
		if code != http.StatusOK {
			bad++
		}
	}
	return bad
}

// traceServe is the traced run of the serve workload. The same passes go
// through the real HTTP edge (POST round trips spanned, then the open-loop
// phase for the tail latency), through the handler in memory (the
// server-side cost without the network), through a bare engine with the
// server's options (the engine's share of the handler), and through the
// layer replay. The SSE frames, the bare engine and the replay must all
// carry the same rankings.
func traceServe(w *workload, o options) (*result, error) {
	res := newResult(w, o)
	passes := 16
	openSeconds := o.Seconds / 4
	if o.Smoke {
		passes, openSeconds = hashPasses, 0.2
	}
	until := streamStart.Add(time.Duration(w.Warm+passes) * w.Stream.passSpan())

	// Over real HTTP.
	tr := newTracer(1 << 16)
	s, err := newServeRun(w, newGenerator(w.Stream, o.Seed))
	if err != nil {
		return nil, err
	}
	defer s.stop()
	for i := 0; i < w.Warm; i++ {
		s.closedPass()
	}
	s.waitFrames()
	root := tr.begin("run", -1)
	firstTick := s.nextPass * w.Stream.PassTicks
	for i := 0; i < passes; i++ {
		pass := tr.begin("pass", root)
		docs0 := s.docs
		for _, docs := range s.gen.intervals(s.nextItems()) {
			for s.expect-s.frames.Load() >= maxFramesBehind {
				time.Sleep(50 * time.Microsecond)
			}
			body := s.render(docs)
			s.mark(docs, int64(time.Since(s.t0)))
			id := tr.begin("server.post", pass)
			s.send(body, len(docs))
			tr.end(id, int64(len(docs)))
		}
		tr.end(pass, s.docs-docs0)
	}
	tr.end(root, s.docs)
	s.waitFrames()
	openTick := s.nextPass * w.Stream.PassTicks
	var late []time.Duration
	for start := time.Now(); len(late) == 0 || time.Since(start).Seconds() < openSeconds; {
		late = append(late, s.openPass()...)
	}
	s.waitFrames()
	if err := s.closeStream(); err != nil {
		res.fail(1, "SSE stream ended early: %v", err)
	}
	res.Attempted = s.docs + s.requests + s.frames.Load()
	if s.non2xx > 0 || s.skipped > 0 || s.short > 0 {
		res.fail(s.non2xx+s.skipped+s.short, "%d failed requests, %d skipped and %d unaccounted documents", s.non2xx, s.skipped, s.short)
	}
	if got := s.frames.Load(); got != s.expect {
		res.fail(s.expect-got, "SSE client saw %d of %d tick frames", got, s.expect)
	}
	det := s.log.detect(s.regionHappenings(firstTick), w.Stream.TickEvery)
	if m := len(det.Missed); m > 0 {
		res.sized(w, int64(m), "%d of %d happenings never reached the top-k: %v", m, det.Attempted, det.Missed)
	}
	want := s.log.hash(until)
	res.Info["hash"] = s.log.hash(s.hashUntil(w.Warm))
	lat := sortedCopy(s.latencies(openTick, len(s.submit)))
	res.Failed += overLimit(lat)
	res.layer("core.notify_p95_ms", percentile(lat, 95))
	res.layer("server.notify_p99_ms", percentile(lat, 99))
	res.layer("bench.gen_late_p99_ms", latenessP99(late))
	res.layer("server.frame_bytes", float64(s.frameBy.Load())/float64(max(s.frames.Load(), 1)))

	// Through the handler, in memory.
	h, err := newHandlerRig(w, o.Seed)
	if err != nil {
		return nil, err
	}
	defer func() { h.rig.stop() }()
	bad := 0
	for p := 0; p < w.Warm; p++ {
		bad += h.pass(p, nil, -1)
	}
	hroot := tr.begin("handler-run", -1)
	for p := w.Warm; p < w.Warm+passes; p++ {
		bad += h.pass(p, tr, hroot)
	}
	tr.end(hroot, 0)
	if bad > 0 {
		res.fail(int64(bad), "%d in-memory requests failed", bad)
	}

	// Reads beside writes: GET rankings and stats through the handler while
	// a producer goroutine keeps ingesting — both sides take tenantState.mu.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := w.Warm + passes; ; p++ {
			select {
			case <-stop:
				return
			default:
				h.pass(p, nil, -1)
			}
		}
	}()
	const reads = 300
	var rankingsUs, statsUs []float64
	reader := &handlerRig{handler: h.handler} // its own body-less requests; h.body belongs to the producer
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		reader.do(http.MethodGet, "/v1/tenants/"+serveTenant+"/rankings", nil)
		t1 := time.Now()
		reader.do(http.MethodGet, "/v1/tenants/"+serveTenant+"/stats", nil)
		rankingsUs = append(rankingsUs, float64(t1.Sub(t0))/1e3)
		statsUs = append(statsUs, float64(time.Since(t1))/1e3)
	}
	close(stop)
	wg.Wait()
	res.layer("server.rankings_get_us", median(rankingsUs))
	res.layer("server.stats_get_us", median(statsUs))

	// A bare engine with the server's options, batches split at the ticks.
	var kept []core.Ranking
	x := newExecution(w, newGenerator(w.Stream, o.Seed), w.engineConfig(""), &kept)
	defer x.close()
	for i := 0; i < w.Warm; i++ {
		x.feedPass(x.consumeBatches)
	}
	eroot := tr.begin("engine-run", -1)
	lastPass := -1 // no per-document or queued pass here: every pass is split
	traced := x.tracedFeed(tr, eroot, &lastPass, func(int) bool { return false })
	keptFrom := len(kept)
	for i := 0; i < passes; i++ {
		x.feedPass(traced)
	}
	tr.end(eroot, 0)
	if err := x.rec.waitFor(x.expect); err != nil {
		return nil, err
	}
	res.Attempted += x.docs
	if x.log.hash(until) != want {
		res.fail(1, "a bare engine published different rankings than the SSE frames carried")
	}

	// The layers beneath.
	rtr := newTracer(1 << 18)
	rp := newReplay(newGenerator(w.Stream, o.Seed), x.eng.Config())
	rp.step(w, w.Warm)
	rp.tr = rtr
	rp.step(w, passes)
	rp.tr = nil
	res.Attempted += rp.docs
	if rp.log.hash(until) != want {
		res.fail(1, "replay of the layers published different rankings than the SSE frames carried")
	}

	et, rt := totals(tr.spans), totals(rtr.spans)
	post := median(durations(tr.spans, "server.post"))
	handler := median(durations(tr.spans, "server.handler"))
	res.layer("server.ingest_us_per_batch", handler/1e3)
	res.layer("server.net_us_per_batch", (post-handler)/1e3)
	// Engine time per body: its documents at the per-document cost plus the
	// one tick its first document fires.
	consume := perUnit(et, "core.consume")
	tick := median(durations(tr.spans, "core.tick"))
	perBody := float64(et["server.handler"].Count) / float64(et["server.handler"].Spans)
	res.layer("server.engine_share", (consume*(perBody-1)+tick)/handler)
	res.layer("core.consume_ns_per_doc", consume)
	res.layer("core.tick_p50_us", (tick-consume)/1e3)
	res.layer("core.tick_p99_us", (percentile(sortedCopy(durations(tr.spans, "core.tick")), 99)-consume)/1e3)
	replayLayers(res, rp, rt)
	replayTick := median(durations(rtr.spans, "core.tick"))
	res.layer("core.tick_residual_us", (tick-consume-replayTick)/1e3)
	res.layer("core.consume_residual_ns_per_doc", consume-perUnit(rt, "tagstats.observe")-perUnit(rt, "pairs.observe"))

	sourceLayers(res, rp.gen)
	publishLayers(res, rp.gen, kept[keptFrom:])
	res.layer("bench.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.fillLayers()
	res.Info["layer_totals"] = map[string]any{"engine": et, "replay": rt}
	res.Info["passes"] = passes
	res.Info["handler_share_of_post"] = handler / post
	if err := writeTrace(traceDir, traceFile{
		Workload: w.Name, Seed: o.Seed,
		Trees: map[string][]span{"engine": tr.spans, "replay": rtr.spans},
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// sourceLayers times the wire decode in front of the engine: ReadJSONL over
// one pass of request bodies, then SortDocs and the Document→Item
// conversion the handler performs on every batch.
func sourceLayers(res *result, gen *generator) {
	items, _ := gen.pass(0)
	var bodies [][]byte
	ndocs, nbytes := 0, 0
	for _, docs := range gen.intervals(items) {
		b := appendJSONL(nil, docs)
		bodies = append(bodies, b)
		ndocs += len(docs)
		nbytes += len(b)
	}
	var decoded [][]source.Document
	start := time.Now()
	for _, b := range bodies {
		docs, _, err := source.ReadJSONL(bytes.NewReader(b), false)
		if err != nil {
			return
		}
		decoded = append(decoded, docs)
	}
	res.layer("source.decode_ns_per_doc", float64(time.Since(start))/float64(ndocs))
	res.layer("source.bytes_per_doc", float64(nbytes)/float64(ndocs))
	var sink []*stream.Item
	start = time.Now()
	for _, docs := range decoded {
		source.SortDocs(docs)
		sink = sink[:0]
		for i := range docs {
			sink = append(sink, docs[i].Item())
		}
	}
	res.layer("source.sort_item_ns_per_doc", float64(time.Since(start))/float64(ndocs))
}

// publishLayers times the server's half of a tick — Server.PublishRanking:
// history record, view conversion, persona rerank, alert watch, marshal and
// hub broadcast — and the persona rerank alone, on recorded rankings.
func publishLayers(res *result, gen *generator, rankings []core.Ranking) {
	if len(rankings) == 0 {
		return
	}
	srv := server.New()
	defer srv.Close()
	srv.AttachHistory(history.New(10000))
	for i := 0; i < servePersonas; i++ {
		srv.Registry().Set(&persona.Profile{Name: fmt.Sprintf("persona-%d", i), Keywords: gen.subscriberTags(), Boost: 2})
	}
	start := time.Now()
	for _, r := range rankings {
		srv.PublishRanking(r)
	}
	res.layer("server.publish_us_per_tick", float64(time.Since(start))/float64(len(rankings))/1e3)

	topics := make([][]persona.Topic, len(rankings))
	for i, r := range rankings {
		for _, t := range r.Topics {
			topics[i] = append(topics[i], persona.Topic{Pair: t.Pair, Score: t.Score})
		}
	}
	start = time.Now()
	for _, ts := range topics {
		srv.Registry().RerankAll(ts)
	}
	res.layer("persona.rerank_us_per_tick", float64(time.Since(start))/float64(len(rankings))/1e3)
}
