package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hetpnoc"
	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/serve"
	"hetpnoc/internal/serve/cache"
)

// Arrival kinds of the serve-mixed stream and their shares.
const (
	kindMiss  = iota // /v1/run with a unique seed: a cache miss
	kindHot          // /v1/run repeating one of the hot set: a cache hit
	kindPair         // two identical /v1/run misses sent together: one coalesces
	kindSweep        // /v1/sweep over a seed x load grid: one prefix group
)

// serveBlock is the mix in every block of 20 arrivals: 11 misses, 6 hot
// repeats, 1 pair and 2 sweeps.
var (
	serveBlock  = []int{11, 6, 1, 2}
	serveWidths = []int{1, 1, 2, 1}
)

const (
	// serveRate is the open-loop arrival rate: the workers are about a
	// quarter busy on a 2-core host, no backlog grows even with one core
	// lost to hypervisor steal, and a 35 s window's ~800 /v1/run samples
	// stay inside the p95 tail rung.
	serveRate = 24.0
	// serveLimit is the latency limit a reply must meet to count toward
	// goodput_rps.
	serveLimit = 500 * time.Millisecond
	hotSetSize = 8
	// sampledRuns is how many /v1/run misses are re-run standalone after
	// the window.
	sampledRuns = 8
	// metricsEvery is the interval at which Server.Metrics is sampled.
	metricsEvery = 10 * time.Millisecond
)

var sweepLoads = []float64{0.2, 0.5, 0.8}

// reqBody is one prepared request.
type reqBody struct {
	path string
	body []byte
	cfgs []hetpnoc.Config // the configs it asks for, in response order
}

var (
	runArchs  = []string{"d-hetpnoc", "firefly"}
	runLoads  = []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	runCycles = []int{2000, 3000, 4000}
)

// runShapes is the number of distinct /v1/run shapes: architecture x
// bandwidth set (1-2) x traffic (uniform, skewed-1..3) x cycles x load.
var runShapes = len(runArchs) * 2 * 4 * len(runCycles) * len(runLoads)

// runShape is the c-th /v1/run shape, light-to-moderate load at 2-4k
// cycles; the first 16 shapes cover every architecture, set and traffic
// at the lightest load and shortest length.
func runShape(c int, seed uint64) serve.RunRequest {
	cycles := runCycles[(c/16)%len(runCycles)]
	req := serve.RunRequest{
		Architecture: runArchs[c%2],
		BandwidthSet: 1 + (c/2)%2,
		LoadScale:    runLoads[(c/48)%len(runLoads)],
		Cycles:       cycles,
		WarmupCycles: cycles / 5,
		Seed:         seed,
	}
	if lvl := (c / 4) % 4; lvl == 0 {
		req.Traffic = &serve.TrafficRequest{Kind: "uniform"}
	} else {
		req.Traffic = &serve.TrafficRequest{Kind: "skewed", SkewLevel: lvl}
	}
	return req
}

func runBody(req serve.RunRequest) (reqBody, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return reqBody{}, err
	}
	cfg, err := req.ToConfig()
	return reqBody{path: "/v1/run", body: b, cfgs: []hetpnoc.Config{cfg}}, err
}

// prepare derives the hot set and every request body of the stream.
// Misses and sweeps take their shapes from shuffled decks, so every run
// carries nearly the same mix of simulation costs and the seed changes
// mainly the order and the simulation seeds.
func prepare(e *env, arrivals []Arrival) (bodies, hot []reqBody, err error) {
	// The hot set's shapes are fixed and spread over the shape space, so
	// the set-up it costs does not depend on the seed.
	for i := 0; i < hotSetSize; i++ {
		c := i * runShapes / hotSetSize
		b, err := runBody(runShape(c, e.derive(uint64(1<<20+c))))
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, b)
	}
	rng := rand.New(rand.NewPCG(e.derive(1<<26), 0x6d6978))
	runs, sweeps := newDeck(rng, runShapes), newDeck(rng, 16)
	bodies = make([]reqBody, len(arrivals))
	for i, a := range arrivals {
		seed := e.derive(uint64(1<<22 + i))
		var b reqBody
		switch a.Kind {
		case kindHot:
			b = hot[a.Draw%hotSetSize]
		case kindMiss, kindPair:
			r := runShape(runs.deal(), seed)
			if a.Kind == kindPair {
				// Long enough that the twin always arrives mid-run.
				r.Cycles, r.WarmupCycles = 4000, 800
			}
			b, err = runBody(r)
		case kindSweep:
			base := runShape(sweeps.deal(), 0)
			base.LoadScale = 0
			sw := serve.SweepRequest{Base: base, LoadScales: sweepLoads, Seeds: []uint64{seed, e.derive(uint64(1<<23 + i))}}
			b.path = "/v1/sweep"
			if b.body, err = json.Marshal(sw); err == nil {
				b.cfgs, err = sw.Expand()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return bodies, hot, nil
}

// service is one hetpnocd instance on a loopback listener and a client
// holding at most nproc connections to it.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
	traced *tracedHandler
}

func startService(e *env) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(serve.Config{Workers: e.nproc}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	base := s.srv.Handler()
	traced := &tracedHandler{srv: s.srv, rec: e.rec, nproc: e.nproc}
	s.traced = traced
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(hdrTraced) != "" {
			traced.ServeHTTP(w, r)
			return
		}
		base.ServeHTTP(w, r)
	})}
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true,
	}}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the server and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// reply is what one request got back.
type reply struct {
	status  int
	points  []serve.RunResponse
	sent    time.Time
	done    time.Time
	tracing bool
}

// Request headers linking a traced request to its client span.
const (
	hdrTraced = "X-Perfbench-Traced"
	hdrSpan   = "X-Perfbench-Span"
	hdrReq    = "X-Perfbench-Req"
)

// do sends one prepared request and decodes the reply; a status of 0
// means the request failed before a well-formed reply arrived. A traced
// request carries its client span's id so the handler's spans nest
// under it.
func (s *service) do(ctx context.Context, rec *Recorder, b reqBody, req uint64, traced bool) (rp reply) {
	rp = reply{sent: time.Now(), tracing: traced}
	defer func() { rp.done = time.Now() }()
	name := "http.run"
	if b.path == "/v1/sweep" {
		name = "http.sweep"
	}
	var sp Open
	if traced {
		sp = rec.Start(name, 0, req)
		defer sp.End()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+b.path, bytes.NewReader(b.body))
	if err != nil {
		return rp
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set(hdrTraced, "1")
		hr.Header.Set(hdrSpan, strconv.FormatUint(uint64(sp.ID()), 10))
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return rp
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rp
	}
	rp.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return rp
	}
	if b.path == "/v1/sweep" {
		var sr serve.SweepResponse
		if json.Unmarshal(data, &sr) != nil || len(sr.Points) != len(b.cfgs) {
			rp.status = 0
			return rp
		}
		rp.points = sr.Points
	} else {
		var rr serve.RunResponse
		if json.Unmarshal(data, &rr) != nil {
			rp.status = 0
			return rp
		}
		rp.points = []serve.RunResponse{rr}
	}
	return rp
}

// tracedHandler serves /v1/run and /v1/sweep through the serve package's
// public calls, with a span around each: decode, cache key, Submit (named
// by its outcome) or SubmitBatch, and encode. A traced run sends every
// other request here and the rest to the service's own handler.
type tracedHandler struct {
	srv   *serve.Server
	rec   *Recorder
	nproc int

	mu   sync.Mutex
	util []float64 // CPU utilisation inside each SubmitBatch, guarded by mu
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	p := SpanID(parent)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var out any
	if r.URL.Path == "/v1/sweep" {
		out, err = t.sweep(r.Context(), p, req, body)
	} else {
		out, err = t.run(r.Context(), p, req, body)
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrBusy) {
			status = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), status)
		return
	}
	sp := t.rec.Start("http.encode", p, req)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out) // a failed write is the client's loss
	sp.End()
}

func (t *tracedHandler) run(ctx context.Context, p SpanID, req uint64, body []byte) (any, error) {
	sp := t.rec.Start("serve.decode", p, req)
	cfg, err := serve.DecodeRunRequest(body)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = t.rec.Start("serve.submit", p, req)
	out, err := t.srv.Submit(ctx, cfg)
	switch {
	case err != nil:
		sp = sp.Named("serve.submit.error")
	case out.Cached:
		sp = sp.Named("serve.submit.hit")
	case out.Coalesced:
		sp = sp.Named("serve.submit.coalesced")
	default:
		sp = sp.Named("serve.submit.miss")
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return serve.RunResponse{Key: out.Key.String(), Cached: out.Cached, Coalesced: out.Coalesced, Result: out.Result}, nil
}

func (t *tracedHandler) sweep(ctx context.Context, p SpanID, req uint64, body []byte) (any, error) {
	sp := t.rec.Start("serve.decode", p, req)
	cfgs, err := serve.DecodeSweepRequest(body)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The benchmark's sweeps are one prefix group, which the service
	// hands to SubmitBatch whole.
	cpu0, t0 := processCPU(), time.Now()
	sp = t.rec.Start("serve.submit_batch", p, req)
	outs, err := t.srv.SubmitBatch(ctx, cfgs)
	sp.End()
	util := (processCPU() - cpu0).Seconds() / (time.Since(t0).Seconds() * float64(t.nproc))
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.util = append(t.util, util)
	t.mu.Unlock()
	resp := serve.SweepResponse{Points: make([]serve.RunResponse, len(outs))}
	for i, o := range outs {
		resp.Points[i] = serve.RunResponse{Key: o.Key.String(), Cached: o.Cached, Coalesced: o.Coalesced, Batched: o.Batched, Result: o.Result}
	}
	return resp, nil
}

// serveMixed is serve-mixed set up: a running service that has answered
// the hot set once, and the window's schedule and request bodies.
type serveMixed struct {
	svc      *service
	arrivals []Arrival
	bodies   []reqBody
	hot      []reqBody
	hotReply []reply
}

// setupServeMixed starts the service and its listener, draws the schedule
// and the request bodies, and requests the hot set once.
func setupServeMixed(ctx context.Context, e *env) (instance, error) {
	svc, err := startService(e)
	if err != nil {
		return nil, err
	}
	s := &serveMixed{svc: svc}
	s.arrivals = Schedule(e.derive(1<<24), serveRate, e.window, serveBlock, serveWidths)
	if s.bodies, s.hot, err = prepare(e, s.arrivals); err != nil {
		s.close() // the preparation error is the one to report
		return nil, err
	}
	s.hotReply = make([]reply, len(s.hot))
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.hot); i += e.nproc {
				s.hotReply[i] = svc.do(ctx, nil, s.hot[i], 0, false)
			}
		}(w)
	}
	wg.Wait()
	for i, rp := range s.hotReply {
		if rp.status != http.StatusOK {
			s.close() // the failed request is the error to report
			return nil, fmt.Errorf("hot set request %d: status %d", i, rp.status)
		}
	}
	return s, nil
}

// close stops the service. A drain that fails at the end changes no
// measurement.
func (s *serveMixed) close() { _ = s.svc.stop() }

// measure drives the service with an open-loop stream at serveRate over at
// most nproc connections: about 55% /v1/run misses, 30% hot-set repeats,
// 5% coalescing pairs and 10% one-group /v1/sweep requests. A traced run
// sends every odd-numbered arrival through the span-instrumented handler
// and the rest through the service's own.
func (s *serveMixed) measure(ctx context.Context, e *env) (*measured, error) {
	m := newMeasured()
	svc, arrivals, bodies, hot, hotReply := s.svc, s.arrivals, s.bodies, s.hot, s.hotReply

	replies := make([][]reply, len(arrivals))
	for i, a := range arrivals {
		replies[i] = make([]reply, a.Width)
	}
	before := svc.srv.Metrics()
	g := startGauges(svc.srv)
	w := openWindow()
	samples := Drive(ctx, w.start, arrivals, e.nproc, func(ctx context.Context, a Arrival, member int) bool {
		traced := e.rec != nil && a.Index%2 == 1
		rp := svc.do(ctx, e.rec, bodies[a.Index], uint64(a.Index+1), traced)
		replies[a.Index][member] = rp
		return rp.status == http.StatusOK
	})
	w.close(m)
	g.stop()
	after := svc.srv.Metrics()

	hotDigest := make([]string, len(hot))
	for i, rp := range hotReply {
		hotDigest[i] = publicSummary(rp.points[0].Result).digest()
	}
	// Check what can be checked from the replies alone, and queue the
	// rest for standalone runs: the hot set, sampled misses and every
	// sweep point.
	var (
		stream    []string
		lagMax    time.Duration
		hitLat    []float64
		kinds     = make([]int, len(serveBlock))
		outcomes  = map[string]int{}
		bad       = make(map[int]bool)
		check     []hetpnoc.Config
		checkWant []string
		checkIdx  []int
		missIdx   []int
	)
	for i, b := range hot {
		check, checkWant, checkIdx = append(check, b.cfgs[0]), append(checkWant, hotDigest[i]), append(checkIdx, -1)
	}
	for _, s := range samples {
		a := arrivals[s.Index]
		rp := replies[s.Index][s.Member]
		b := bodies[s.Index]
		m.attempted++
		kinds[a.Kind]++
		lagMax = max(lagMax, s.Lag())
		if !s.OK {
			m.failed++
			continue
		}
		switch {
		case a.Kind == kindSweep && !rp.tracing:
			m.sweeps = append(m.sweeps, s.Latency())
		case a.Kind == kindSweep:
		case rp.tracing:
			m.tracedOps = append(m.tracedOps, s.Latency())
		default:
			m.ops = append(m.ops, s.Latency())
		}
		for k, p := range rp.points {
			if !p.Cached && !p.Coalesced {
				m.cycles += int64(b.cfgs[k].Normalized().Cycles)
			}
			switch {
			case p.Cached:
				outcomes["cached"]++
			case p.Coalesced:
				outcomes["coalesced"]++
			default:
				outcomes["simulated"]++
			}
			dg := publicSummary(p.Result).digest()
			stream = append(stream, fmt.Sprintf("%d/%d/%d:%s", s.Index, s.Member, k, dg))
			switch a.Kind {
			case kindHot:
				if !e.check.expect(fmt.Sprintf("request %d hot-set repeat", s.Index), dg, hotDigest[a.Draw%hotSetSize]) {
					bad[s.Index] = true
				}
			case kindPair:
				// A failed first twin is already counted; there is nothing
				// to compare the second with.
				if first := replies[s.Index][0].points; s.Member == 1 && len(first) == 1 {
					if !e.check.expect(fmt.Sprintf("request %d coalesced twin", s.Index), dg, publicSummary(first[0].Result).digest()) {
						bad[s.Index] = true
					}
				}
			case kindSweep:
				check, checkWant, checkIdx = append(check, b.cfgs[k]), append(checkWant, dg), append(checkIdx, s.Index)
			case kindMiss:
				missIdx = append(missIdx, s.Index)
			}
		}
		if a.Kind == kindHot && !rp.tracing {
			hitLat = append(hitLat, float64(rp.done.Sub(rp.sent))/float64(time.Microsecond))
		}
	}
	rng := rand.New(rand.NewPCG(e.derive(1<<25), 0))
	rng.Shuffle(len(missIdx), func(i, j int) { missIdx[i], missIdx[j] = missIdx[j], missIdx[i] })
	sampled := missIdx[:min(sampledRuns, len(missIdx))]
	for _, i := range sampled {
		dg := publicSummary(replies[i][0].points[0].Result).digest()
		check, checkWant, checkIdx = append(check, bodies[i].cfgs[0]), append(checkWant, dg), append(checkIdx, i)
	}
	got, err := runAll(ctx, e.nproc, check)
	if err != nil {
		return nil, fmt.Errorf("standalone check runs: %w", err)
	}
	for k := range check {
		if !e.check.expect(fmt.Sprintf("request %d point vs standalone hetpnoc.Run", checkIdx[k]), checkWant[k], got[k].digest()) && checkIdx[k] >= 0 {
			bad[checkIdx[k]] = true
		}
	}
	if e.rec != nil {
		keySpans(e.rec, arrivals, bodies)
		stats := traceFabricPaths(ctx, e, arrivals, bodies, replies, sampled)
		m.layers["batch.groups"] = float64(stats.Groups)
		m.layers["batch.members"] = float64(stats.Members)
	}
	for _, s := range samples {
		if s.OK && !bad[s.Index] && s.Latency() <= serveLimit {
			m.good++
		}
	}

	m.digests["hotset"] = digestJSON(hotDigest)
	m.digests["stream"] = digestJSON(stream)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		m.layers["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m.layers["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
	m.layers["serve.rejected"] = float64(after.Rejected - before.Rejected)
	m.layers["serve.batched_runs"] = float64(after.BatchedRuns - before.BatchedRuns)
	m.layers["serve.queue_depth_mean"] = g.depthMean()
	m.layers["serve.inflight_max"] = float64(g.inflightMax)
	m.layers["loadgen.lag_ms_max"] = millis(lagMax)
	if hitUs := medianSpan(e.rec, "serve.submit.hit", time.Microsecond); hitUs > 0 {
		m.layers["http.overhead_us_p50"] = Percentile(hitLat, 50) - hitUs
	}
	svc.traced.mu.Lock()
	m.layers["batch.cpu_util"] = Percentile(svc.traced.util, 50)
	svc.traced.mu.Unlock()
	m.meta["requests_by_kind"] = map[string]int{"miss": kinds[kindMiss], "hot": kinds[kindHot], "pair": kinds[kindPair], "sweep": kinds[kindSweep]}
	m.meta["outcomes"] = outcomes
	m.meta["arrival_rate_per_s"] = serveRate
	m.meta["latency_limit_ms"] = millis(serveLimit)
	m.meta["worker_busy_frac"] = g.inflightMean() / float64(e.nproc)
	m.meta["inflight_max_exceeds_workers"] = g.inflightMax > int64(e.nproc)
	m.meta["standalone_checks"] = len(check)
	return m, nil
}

// medianSpan is the median duration of the named spans in unit.
func medianSpan(r *Recorder, name string, unit time.Duration) float64 {
	ds := r.Durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return Percentile(xs, 50)
}

// keySpans times the cache key (Config.Normalized, CanonicalJSON and
// cache.KeyOf) of every /v1/run request the traced half sent. It runs after
// the window, off the request path, so the traced handler does no work the
// service's own handler does not.
func keySpans(rec *Recorder, arrivals []Arrival, bodies []reqBody) {
	for _, a := range arrivals {
		if a.Kind == kindSweep || a.Index%2 == 0 {
			continue
		}
		cfg, err := serve.DecodeRunRequest(bodies[a.Index].body)
		if err != nil {
			continue // the request itself failed and is counted
		}
		sp := rec.Start("hetpnoc.key", 0, uint64(a.Index+1))
		canonical, err := cfg.Normalized().CanonicalJSON()
		if err == nil {
			_ = cache.KeyOf(canonical)
		}
		sp.End()
	}
}

// traceFabricPaths replays, through the fabric's public calls with spans,
// the sampled /v1/run misses (build, step, finish per run) and the first
// few sweeps (batch.NewPlan, then one build, a checkpoint and a restore
// per point), checking each result against the one the service returned.
// It returns the last replayed sweep's plan shape.
func traceFabricPaths(ctx context.Context, e *env, arrivals []Arrival, bodies []reqBody, replies [][]reply, sampled []int) batch.Stats {
	for _, i := range sampled {
		req := uint64(i + 1)
		sum, err := driveFabric(ctx, e.rec, 0, req, fabricConfig(bodies[i].cfgs[0]))
		if err != nil {
			e.check.failf("request %d fabric replay: %v", i, err)
			continue
		}
		e.check.expect(fmt.Sprintf("request %d fabric replay", i), sum.digest(), publicSummary(replies[i][0].points[0].Result).digest())
	}
	const sweepsReplayed = 4
	n := 0
	var stats batch.Stats
	for i, a := range arrivals {
		if a.Kind != kindSweep || n == sweepsReplayed || replies[i][0].status != http.StatusOK {
			continue
		}
		n++
		var group []fabric.Config
		var want []summary
		for k, cfg := range bodies[i].cfgs {
			group = append(group, fabricConfig(cfg))
			want = append(want, publicSummary(replies[i][0].points[k].Result))
		}
		// The plan SubmitBatch makes for this sweep: one group.
		sp := e.rec.Start("batch.plan", 0, uint64(i+1))
		plan, err := batch.NewPlan(group, batch.Options{Workers: e.nproc})
		sp.End()
		if err != nil {
			e.check.failf("request %d sweep plan: %v", i, err)
			continue
		}
		stats = plan.Stats()
		forkGroup(ctx, e, uint64(i+1), group, want)
	}
	return stats
}

// gauges samples Server.Metrics at a fixed interval until stopped.
type gauges struct {
	stopCh chan struct{}
	wg     sync.WaitGroup

	// Written by the sampling goroutine, read after stop returns.
	depthSum, inflightSum float64
	inflightMax           int64
	n                     int
}

func startGauges(srv *serve.Server) *gauges {
	g := &gauges{stopCh: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(metricsEvery)
		defer tick.Stop()
		for {
			select {
			case <-g.stopCh:
				return
			case <-tick.C:
				mt := srv.Metrics()
				g.depthSum += float64(mt.QueueDepth)
				g.inflightSum += float64(mt.InFlight)
				g.inflightMax = max(g.inflightMax, mt.InFlight)
				g.n++
			}
		}
	}()
	return g
}

// stop ends the sampling and waits for the goroutine to exit.
func (g *gauges) stop() {
	close(g.stopCh)
	g.wg.Wait()
}

func (g *gauges) depthMean() float64    { return g.depthSum / float64(max(g.n, 1)) }
func (g *gauges) inflightMean() float64 { return g.inflightSum / float64(max(g.n, 1)) }
