package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/pltstore"
	"fssim/internal/server"
	"fssim/internal/trace"
)

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Addr is the listen address for Serve (":0" picks a port).
	Addr string
	// Backends are the fssimd base URLs the ring shards over
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Backends []string
	// Replicas is the ring's virtual-point count per backend
	// (0 = DefaultReplicas).
	Replicas int
	// Quorum is the minimum healthy-backend count for fleet routing: below
	// it, requests run locally through the embedded server (degraded mode).
	// 0 defaults to a majority of the configured backends.
	Quorum int
	// Passes is how many full failover sweeps over a key's preference
	// sequence are made before giving up on the fleet (default 2; the first
	// sweep is pass 1). Between sweeps the router backs off with full jitter,
	// honoring the largest Retry-After any backend returned.
	Passes int
	// AttemptTimeout bounds each single backend attempt (default 1m) so a
	// wedged backend converts to failover, not an unbounded stall.
	AttemptTimeout time.Duration
	// HedgeAfter is the idempotent-GET hedging delay: when the home node has
	// not answered within it, a second request is fired at the next ring node
	// and the first success wins. 0 = adaptive (2× the forward-latency EWMA);
	// negative disables hedging.
	HedgeAfter time.Duration
	// Scale and Seed are the request-normalization defaults. They MUST match
	// the backends' own -scale/-seed defaults: the ring placement and run id
	// are computed from the normalized key, and a disagreement would route a
	// request to one shard while the backend memoizes it under another key.
	Scale float64
	Seed  int64
	// Local is the embedded degraded-mode server: when fewer than Quorum
	// backends are healthy (or every forward failed), requests run locally —
	// cold, but correct, because responses are a pure function of the
	// request. nil disables the fallback (the router then fails closed).
	Local *server.Server
	// Health tunes probing and ejection. Health.Probe is set by the router
	// (a /readyz fetch) unless overridden.
	Health HealthConfig

	// rnd and sleep are test seams for the inter-pass backoff.
	rnd   func() float64
	sleep func(context.Context, time.Duration) error
}

func (c RouterConfig) normalized() (RouterConfig, error) {
	if len(c.Backends) == 0 {
		return c, errors.New("fleet: router needs at least one backend")
	}
	if c.Addr == "" {
		c.Addr = ":8100"
	}
	if c.Quorum <= 0 {
		c.Quorum = len(c.Backends)/2 + 1
	}
	if c.Quorum > len(c.Backends) {
		c.Quorum = len(c.Backends)
	}
	if c.Passes <= 0 {
		c.Passes = 2
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Minute
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.rnd == nil {
		c.rnd = rand.Float64
	}
	if c.sleep == nil {
		c.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	for i, b := range c.Backends {
		c.Backends[i] = strings.TrimRight(b, "/")
	}
	return c, nil
}

// maxRouteBody bounds buffered request bodies (a run request is a handful of
// scalars; see server's own cap).
const maxRouteBody = 1 << 16

// maxIDSums bounds the byte-identity verification map.
const maxIDSums = 4096

// Router is the fleet's routing tier: one HTTP front that consistent-hash
// shards requests over N fssimd backends, fails over on connect errors, 5xx
// and deadlines (safe, because responses are byte-identical pure functions
// of the request), hedges slow idempotent GETs, opportunistically verifies
// that duplicate responses for one run id are byte-identical across
// backends, and degrades to a local embedded scheduler when the fleet drops
// below quorum.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	health *Health
	hc     *http.Client

	latencyEWMA atomic.Int64 // µs of successful forwards; feeds hedging

	idMu    sync.Mutex
	idSums  map[string]uint64 // run id -> FNV-1a of its 200 body
	idOrder []string

	addr    atomic.Value // string
	started chan struct{}

	reg         *trace.Registry
	latMu       sync.Mutex
	mRequests   *trace.Counter
	mForwarded  *trace.Counter
	mFailovers  *trace.Counter
	mPasses     *trace.Counter
	mHedged     *trace.Counter
	mHedgeWins  *trace.Counter
	mDegraded   *trace.Counter
	mExhausted  *trace.Counter
	mMismatches *trace.Counter
	mLatency    *trace.Histogram
}

// NewRouter builds a router (without listening; see Handler and Serve).
// Its fleet.* instruments live on reg (pass nil for no-op instruments).
func NewRouter(cfg RouterConfig, reg *trace.Registry) (*Router, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:         cfg,
		ring:        NewRing(cfg.Replicas, cfg.Backends...),
		hc:          &http.Client{},
		idSums:      make(map[string]uint64),
		started:     make(chan struct{}),
		reg:         reg,
		mRequests:   reg.Counter("fleet.route.requests"),
		mForwarded:  reg.Counter("fleet.route.forwarded"),
		mFailovers:  reg.Counter("fleet.route.failovers"),
		mPasses:     reg.Counter("fleet.route.backoff_passes"),
		mHedged:     reg.Counter("fleet.route.hedged"),
		mHedgeWins:  reg.Counter("fleet.route.hedge_wins"),
		mDegraded:   reg.Counter("fleet.route.degraded_local"),
		mExhausted:  reg.Counter("fleet.route.exhausted"),
		mMismatches: reg.Counter("fleet.route.mismatches"),
		mLatency:    reg.Histogram("fleet.route.latency_us"),
	}
	rt.latencyEWMA.Store(50_000) // 50ms prior until real forwards teach it
	hcfg := cfg.Health
	if hcfg.Probe == nil {
		hcfg.Probe = rt.probeReadyz
	}
	rt.health = NewHealth(hcfg, reg, cfg.Backends...)
	return rt, nil
}

// Health exposes the router's backend tracker (status bodies, tests).
func (rt *Router) Health() *Health { return rt.health }

// Ring exposes the router's placement ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *trace.Registry { return rt.reg }

// probeReadyz is the default health probe: GET /readyz must answer with a
// decodable body that is ready and not draining.
func (rt *Router) probeReadyz(ctx context.Context, backend string) error {
	st, err := server.NewClient(backend).Readyz(ctx)
	if err != nil {
		return err
	}
	if st.Draining || st.Status != "ready" {
		return fmt.Errorf("fleet: backend %s not ready (%s)", backend, st.Status)
	}
	return nil
}

// Handler returns the router's HTTP routes — a superset-compatible mirror of
// the fssimd surface, so clients talk to the fleet exactly as they would to
// one node.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", rt.handleRunGet)
	mux.HandleFunc("GET /v1/runs/{id}/trace", rt.handleRunTrace)
	mux.HandleFunc("GET /v1/plt", rt.handlePLTIndex)
	mux.HandleFunc("GET /v1/plt/{benchmark}", rt.handlePLT)
	mux.HandleFunc("GET /v1/plt/{benchmark}/{hash}", rt.handlePLTAt)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// backendResult is one relayed (or relayable) backend response.
type backendResult struct {
	backend string
	status  int
	header  http.Header
	body    []byte
}

// attempt forwards one request to one backend, bounded by AttemptTimeout,
// and buffers the response up to limit bytes.
func (rt *Router) attempt(ctx context.Context, backend, method, path string, body []byte, limit int64) (*backendResult, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(actx, method, backend+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := rt.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err
	}
	rt.observeForward(time.Since(start))
	return &backendResult{backend: backend, status: resp.StatusCode, header: resp.Header, body: rbody}, nil
}

func (rt *Router) observeForward(d time.Duration) {
	us := d.Microseconds()
	rt.latMu.Lock()
	rt.mLatency.Observe(float64(us))
	rt.latMu.Unlock()
	for {
		old := rt.latencyEWMA.Load()
		next := old + (us-old)/4
		if next <= 0 {
			next = 1
		}
		if rt.latencyEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// preference is the key's failover order: the ring sequence with healthy
// backends first (in ring order), ejected ones demoted to last resort.
func (rt *Router) preference(key string) []string {
	seq := rt.ring.Sequence(key, rt.ring.Len())
	out := make([]string, 0, len(seq))
	var ejected []string
	for _, b := range seq {
		if rt.health.Healthy(b) {
			out = append(out, b)
		} else {
			ejected = append(ejected, b)
		}
	}
	return append(out, ejected...)
}

// authoritative reports whether a backend response settles the request — no
// failover. 2xx is success; 4xx is the client's fault and will fail
// identically everywhere (responses are deterministic).
func authoritative(status int) bool { return status < 500 && status != http.StatusTooManyRequests }

// route tries the key's preference sequence up to Passes times, failing over
// on transport errors, deadlines, 429 and 5xx. It returns the first
// authoritative response; exhaustion returns the last non-authoritative
// response (or nil with the last transport error).
func (rt *Router) route(ctx context.Context, key, method, path string, body []byte, limit int64) (*backendResult, error) {
	var last *backendResult
	var lastErr error
	for pass := 1; pass <= rt.cfg.Passes; pass++ {
		var retryAfter time.Duration
		for _, b := range rt.preference(key) {
			res, err := rt.attempt(ctx, b, method, path, body, limit)
			if err != nil {
				if ctx.Err() != nil {
					return last, errors.Join(ctx.Err(), lastErr)
				}
				rt.health.ReportFail(b)
				rt.mFailovers.Add(1)
				lastErr = fmt.Errorf("fleet: %s %s%s: %w", method, b, path, err)
				continue
			}
			if authoritative(res.status) {
				rt.health.ReportOK(b)
				rt.mForwarded.Add(1)
				return res, nil
			}
			if res.status == http.StatusTooManyRequests {
				// The backend is alive, just saturated: spread to the next
				// ring node without counting it as unhealthy.
				if ra := parseRetryAfter(res.header); ra > retryAfter {
					retryAfter = ra
				}
			} else {
				rt.health.ReportFail(b)
				if ra := parseRetryAfter(res.header); ra > retryAfter {
					retryAfter = ra
				}
			}
			rt.mFailovers.Add(1)
			last, lastErr = res, nil
		}
		if pass < rt.cfg.Passes {
			rt.mPasses.Add(1)
			// Full-jitter backoff between sweeps, floored by the largest
			// Retry-After any backend volunteered.
			max := 50 * time.Millisecond << uint(pass-1)
			d := time.Duration(rt.cfg.rnd() * float64(max))
			if d < time.Millisecond {
				d = time.Millisecond
			}
			if retryAfter > d {
				d = retryAfter
			}
			if err := rt.cfg.sleep(ctx, d); err != nil {
				return last, errors.Join(err, lastErr)
			}
		}
	}
	return last, lastErr
}

func parseRetryAfter(h http.Header) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec > 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

// relay writes a backend result to the client, stamping fleet headers.
func (rt *Router) relay(w http.ResponseWriter, res *backendResult, fleet string) {
	for k, vs := range res.header {
		if k == "Content-Type" || strings.HasPrefix(k, "X-Fssim-") || k == "Retry-After" {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
	}
	w.Header().Set("X-Fssim-Fleet", fleet)
	w.Header().Set("X-Fssim-Backend", res.backend)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// serveLocal runs the request on the embedded server — the degraded mode:
// cold (no shared memo cache, no warm peers) but correct, because every
// response is a pure function of the request.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.mDegraded.Add(1)
	w.Header().Set("X-Fssim-Fleet", "degraded")
	r2 := r.Clone(r.Context())
	if body != nil {
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
	}
	rt.cfg.Local.Handler().ServeHTTP(w, r2)
}

// belowQuorum reports whether the fleet is too unhealthy to route.
func (rt *Router) belowQuorum() bool {
	return rt.health.HealthyCount() < rt.cfg.Quorum
}

// verifyBody is the opportunistic byte-identity check: every 200 body for a
// run id must be identical, no matter which backend (or local fallback)
// produced it. A mismatch means a backend violated the determinism contract;
// it is counted loudly but the response is still served (the router cannot
// know which copy is right).
func (rt *Router) verifyBody(id string, body []byte) bool {
	h := fnv.New64a()
	_, _ = h.Write(body)
	sum := h.Sum64()
	rt.idMu.Lock()
	defer rt.idMu.Unlock()
	if prev, ok := rt.idSums[id]; ok {
		if prev != sum {
			rt.mMismatches.Add(1)
			return false
		}
		return true
	}
	if len(rt.idOrder) >= maxIDSums {
		delete(rt.idSums, rt.idOrder[0])
		rt.idOrder = rt.idOrder[1:]
	}
	rt.idSums[id] = sum
	rt.idOrder = append(rt.idOrder, id)
	return true
}

// handleSubmit is POST /v1/runs: decode at the edge (bad requests never
// travel), place by run id on the ring, fail over along it, degrade local
// below quorum or on exhaustion.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRouteBody))
	if err != nil {
		http.Error(w, `{"error":"unreadable request body"}`, http.StatusBadRequest)
		return
	}
	req, err := server.DecodeRunRequest(bytes.NewReader(body))
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
		return
	}
	key, err := req.Spec(rt.cfg.Scale, rt.cfg.Seed)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
		return
	}
	id := server.RunID(key)

	if rt.cfg.Local != nil && rt.belowQuorum() {
		rt.serveLocal(w, r, body)
		return
	}
	res, rerr := rt.route(r.Context(), id, http.MethodPost, "/v1/runs", body, maxResultBody)
	if res != nil && authoritative(res.status) {
		if res.status == http.StatusOK {
			rt.verifyBody(id, res.body)
		}
		rt.relay(w, res, "routed")
		return
	}
	// Fleet exhausted: run it here if we can — degraded beats down.
	rt.mExhausted.Add(1)
	if rt.cfg.Local != nil {
		rt.serveLocal(w, r, body)
		return
	}
	rt.relayFailure(w, res, rerr)
}

// relayFailure renders total fleet failure: the last backend response if any
// (its Retry-After intact), else 502.
func (rt *Router) relayFailure(w http.ResponseWriter, res *backendResult, err error) {
	if res != nil {
		rt.relay(w, res, "exhausted")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fssim-Fleet", "exhausted")
	w.WriteHeader(http.StatusBadGateway)
	msg := "no backend reachable"
	if err != nil {
		msg = err.Error()
	}
	fmt.Fprintf(w, `{"error":%q}`+"\n", msg)
}

// maxResultBody bounds relayed run/trace bodies.
const maxResultBody = 8 << 20

// hedgeDelay is the current idempotent-GET hedging threshold.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	d := 2 * time.Duration(rt.latencyEWMA.Load()) * time.Microsecond
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// routeIdempotentGet routes a GET with hedging: the home node gets
// hedgeDelay to answer; then the next preference node races it and the first
// authoritative response wins. Falls back to the full sequential route when
// the race produces nothing.
func (rt *Router) routeIdempotentGet(ctx context.Context, key, path string, limit int64) (*backendResult, error) {
	seq := rt.preference(key)
	hd := rt.hedgeDelay()
	if len(seq) < 2 || rt.cfg.HedgeAfter < 0 {
		return rt.route(ctx, key, http.MethodGet, path, nil, limit)
	}
	type outcome struct {
		backend string
		res     *backendResult
		err     error
		hedged  bool
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	try := func(b string, hedged bool) {
		res, err := rt.attempt(rctx, b, http.MethodGet, path, nil, limit)
		ch <- outcome{b, res, err, hedged}
	}
	go try(seq[0], false)
	timer := time.NewTimer(hd)
	defer timer.Stop()
	launched := 1
	var firstFail *outcome
	for {
		select {
		case <-timer.C:
			if launched < 2 {
				rt.mHedged.Add(1)
				go try(seq[1], true)
				launched++
			}
		case o := <-ch:
			if o.err == nil && authoritative(o.res.status) {
				rt.health.ReportOK(o.res.backend)
				rt.mForwarded.Add(1)
				if o.hedged {
					rt.mHedgeWins.Add(1)
				}
				return o.res, nil
			}
			if o.err != nil && rctx.Err() == nil {
				rt.health.ReportFail(o.backend)
			}
			if firstFail == nil {
				firstFail = &o
				if launched < 2 {
					// Primary failed fast: hedge immediately.
					rt.mHedged.Add(1)
					go try(seq[1], true)
					launched++
				}
				continue
			}
			// Both raced attempts failed; sweep the whole ring sequentially.
			return rt.route(ctx, key, http.MethodGet, path, nil, limit)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// handleRunGet is GET /v1/runs/{id}: the id is itself the ring key (it is a
// pure function of the run key the submit was placed by), so the GET lands
// on the same shard — hedged, because it is idempotent and cheap.
func (rt *Router) handleRunGet(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	id := r.PathValue("id")
	if rt.cfg.Local != nil && rt.belowQuorum() {
		rt.serveLocal(w, r, nil)
		return
	}
	res, err := rt.routeIdempotentGet(r.Context(), id, "/v1/runs/"+id, maxResultBody)
	if res != nil && authoritative(res.status) {
		if res.status == http.StatusOK {
			rt.verifyBody(id, res.body)
		}
		rt.relay(w, res, "routed")
		return
	}
	rt.mExhausted.Add(1)
	if rt.cfg.Local != nil {
		rt.serveLocal(w, r, nil)
		return
	}
	rt.relayFailure(w, res, err)
}

// handleRunTrace is GET /v1/runs/{id}/trace, placed like the run itself.
func (rt *Router) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	id := r.PathValue("id")
	res, err := rt.routeIdempotentGet(r.Context(), id, "/v1/runs/"+id+"/trace", maxResultBody)
	if res != nil {
		rt.relay(w, res, "routed")
		return
	}
	rt.relayFailure(w, nil, err)
}

// handlePLT routes GET /v1/plt/{benchmark} by benchmark, hedged.
func (rt *Router) handlePLT(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	bench := r.PathValue("benchmark")
	res, err := rt.routeIdempotentGet(r.Context(), "plt|"+bench,
		"/v1/plt/"+bench, pltstore.MaxSnapshotBytes+1)
	if res != nil {
		rt.relay(w, res, "routed")
		return
	}
	rt.relayFailure(w, nil, err)
}

// handlePLTAt routes the exact-address snapshot fetch like handlePLT.
func (rt *Router) handlePLTAt(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	bench, hash := r.PathValue("benchmark"), r.PathValue("hash")
	res, err := rt.routeIdempotentGet(r.Context(), "plt|"+bench,
		"/v1/plt/"+bench+"/"+hash, pltstore.MaxSnapshotBytes+1)
	if res != nil {
		rt.relay(w, res, "routed")
		return
	}
	rt.relayFailure(w, nil, err)
}

// handlePLTIndex proxies the snapshot index from the first healthy backend
// (indexes are per-node; gossip converges them, so any node's answer is a
// usable approximation of the fleet's).
func (rt *Router) handlePLTIndex(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	res, err := rt.routeIdempotentGet(r.Context(), "plt-index", "/v1/plt", maxResultBody)
	if res != nil {
		rt.relay(w, res, "routed")
		return
	}
	rt.relayFailure(w, nil, err)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz reports the fleet's routable state: ready while at least one
// backend is healthy or a local fallback exists, with the per-backend map
// and quorum so operators see degradation coming.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.health.HealthyCount()
	degraded := rt.belowQuorum()
	status := http.StatusOK
	if healthy == 0 && rt.cfg.Local == nil {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	state := "ready"
	if degraded {
		state = "degraded"
	}
	if status != http.StatusOK {
		state = "unavailable"
	}
	fmt.Fprintf(w, `{"status":%q,"healthy":%d,"quorum":%d,"backends":%d,"degraded":%v}`+"\n",
		state, healthy, rt.cfg.Quorum, rt.ring.Len(), degraded)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rt.latMu.Lock()
	_ = rt.reg.WriteText(w)
	rt.latMu.Unlock()
}

// Addr returns the bound listen address once Serve is up (useful with ":0").
func (rt *Router) Addr() string {
	<-rt.started
	v, _ := rt.addr.Load().(string)
	return v
}

// Serve listens on cfg.Addr, runs the health probe loop, and serves until
// ctx is canceled; then it shuts the listener down gracefully and, when a
// local fallback server exists, drains it (flushing its artifacts).
func (rt *Router) Serve(ctx context.Context) error {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return err
	}
	rt.addr.Store(ln.Addr().String())
	close(rt.started)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go rt.health.Run(pctx)
	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	herr := hs.Shutdown(hctx)
	var derr error
	if rt.cfg.Local != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		derr = rt.cfg.Local.Drain(dctx)
	}
	return errors.Join(herr, derr)
}
