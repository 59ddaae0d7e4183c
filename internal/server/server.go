// Package server is the resilient HTTP/JSON serving front-end over the
// experiment scheduler: the long-lived process that lets many concurrent
// clients submit (benchmark, mode, L2, scale, seed, faults) simulation
// requests and share the deterministic, RunKey-memoized results.
//
// Robustness is the design center:
//
//   - Bounded admission: at most Queue requests are in the building (waiting
//     or running); everything beyond that is shed with 429 + Retry-After.
//     The server never fans out an unbounded goroutine per request.
//   - Deadlines: every request waits at most its deadline (server default,
//     client-reducible) for a result; the simulation itself is bounded by
//     the scheduler's per-run timeout, so a wedged run cannot hold a worker
//     forever or block other clients.
//   - Singleflight dedup: identical in-flight requests join one simulation;
//     identical repeat requests are served from the memo cache. Cache status
//     is reported in the X-Fssim-Cache header; response bodies are a pure
//     function of the request, hence byte-identical and cacheable.
//   - Circuit breaking: per-(benchmark, mode) breakers open under failure
//     storms (run failures, timeouts, or watchdog-degraded predictions) and
//     fast-fail with 503 until a half-open probe proves recovery.
//   - Graceful drain: on shutdown the server stops admitting, lets in-flight
//     runs finish (or cancels them at the drain deadline), and flushes trace
//     and metrics artifacts before exiting.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/pltstore"
	"fssim/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Addr is the listen address for Serve (e.g. ":8080"; ":0" picks a port).
	Addr string
	// Queue bounds how many requests may be admitted at once, waiting plus
	// running; requests beyond it get 429. Default 64.
	Queue int
	// Workers bounds how many simulations run concurrently (the scheduler's
	// worker-pool width). Default GOMAXPROCS.
	Workers int
	// Deadline is the default and maximum time one request waits for its
	// result. Default 2m.
	Deadline time.Duration
	// DrainTimeout is how long a drain waits for in-flight runs before
	// canceling them; it also bounds the artifact flush when the drain
	// context arrives already expired. Default 30s.
	DrainTimeout time.Duration
	// RunTimeout bounds each simulation's wall-clock time. 0 defaults to
	// Deadline (a run no client can wait for should not pin a worker);
	// negative disables the per-run timeout entirely.
	RunTimeout time.Duration
	// Retries is how many extra attempts a failed run gets.
	Retries int
	// Scale and Seed are the defaults applied to requests that leave them
	// unset. Defaults 1.0 and 1.
	Scale float64
	Seed  int64
	// Trace records every simulation, enabling GET /v1/runs/{id}/trace and
	// the drain-time artifact flush. Implied by TracePath/MetricsPath.
	Trace bool
	// TracePath and MetricsPath, when set, are written on drain (Chrome
	// trace-event JSON — or JSON lines for a .jsonl path — and a plaintext
	// metrics dump, the PR 3 exporter formats).
	TracePath   string
	MetricsPath string
	// MaxRecords bounds how many distinct run records GET /v1/runs/{id} can
	// address: beyond it the oldest resolved records are evicted, so a
	// long-lived server's memory stays bounded under arbitrarily many
	// distinct requests. Default 4096.
	MaxRecords int
	// WarmDir roots a PLT snapshot store (internal/pltstore): accelerated
	// runs' learned tables are persisted there, identical repeat requests are
	// replayed from disk across server restarts, and GET /v1/plt/{benchmark}
	// serves the newest snapshot. Stale or corrupt snapshots degrade to cold
	// simulation. Empty disables persistence.
	WarmDir string
	// Transfer enables cross-config PLT transfer for accelerated requests
	// carrying a "store" directive: the warm store's nearest eligible donor
	// snapshot is rescaled and imported as priors. Requires WarmDir; an
	// ineligible donor is rejected (counted) and the run proceeds cold.
	Transfer bool
	// Breaker tunes the per-(benchmark, mode) circuit breakers.
	Breaker BreakerConfig

	// now is the test seam for breaker and Retry-After clocks.
	now func() time.Time
}

func (c Config) normalized() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = c.Deadline
	}
	if c.RunTimeout < 0 {
		c.RunTimeout = 0 // explicit "no per-run timeout"
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TracePath != "" || c.MetricsPath != "" {
		c.Trace = true
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 4096
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// runRecord is the server's view of one distinct run id, shared by every
// request that maps to it.
type runRecord struct {
	id  string
	key experiments.RunKey

	mu     sync.Mutex
	status string // "running", "done" or "failed"
	body   []byte // the deterministic 200 body, once done
	errMsg string
}

// settle records a run's resolution. Settling twice is harmless: the body is
// deterministic, and a record re-run after a failure eviction may legally
// move from "failed" to "done".
func (r *runRecord) settle(status string, body []byte, errMsg string) {
	r.mu.Lock()
	r.status, r.body, r.errMsg = status, body, errMsg
	r.mu.Unlock()
}

// Server is the serving front-end. Build with New, mount Handler on any
// http.Server (or call Serve), and Drain before exit.
type Server struct {
	cfg   Config
	sched *experiments.Scheduler

	baseCtx    context.Context // lifetime of detached simulations
	cancelRuns context.CancelFunc

	queueSlots chan struct{}
	draining   atomic.Bool
	// drainMu serializes admission (the draining check plus inflight.Add)
	// against Drain's flag flip, so no request can Add after Drain observed
	// the flag set and started inflight.Wait — the documented WaitGroup
	// Add/Wait race.
	drainMu  sync.Mutex
	inflight sync.WaitGroup
	breakers *breakerSet

	mu       sync.Mutex
	records  map[string]*runRecord
	recOrder []string // record ids in creation order, for bounded eviction

	latencyEWMA atomic.Int64 // microseconds; feeds Retry-After estimates
	latMu       sync.Mutex   // trace.Histogram is single-writer; handlers are not

	addr    atomic.Value // string; set once Serve has a listener
	started chan struct{}

	// Serving-path instruments, exported via GET /metrics and the drain-time
	// metrics artifact.
	reg        *trace.Registry
	mQueue     *trace.Gauge
	mAdmitted  *trace.Counter
	mShed      *trace.Counter
	mBreaker   *trace.Counter
	mDedup     *trace.Counter
	mCompleted *trace.Counter
	mFailed    *trace.Counter
	mLatency   *trace.Histogram
}

// New builds a Server (without listening; see Serve and Handler).
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	baseCtx, cancel := context.WithCancel(context.Background())
	sched := experiments.NewScheduler(experiments.Config{
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Parallelism: cfg.Workers,
		Timeout:     cfg.RunTimeout,
		Retries:     cfg.Retries,
		Trace:       cfg.Trace,
		WarmDir:     cfg.WarmDir,
		Transfer:    cfg.Transfer,
	}.WithContext(baseCtx))
	reg := trace.NewRegistry()
	s := &Server{
		cfg:        cfg,
		sched:      sched,
		baseCtx:    baseCtx,
		cancelRuns: cancel,
		queueSlots: make(chan struct{}, cfg.Queue),
		breakers:   newBreakerSet(cfg.Breaker, cfg.now),
		records:    make(map[string]*runRecord),
		started:    make(chan struct{}),
		reg:        reg,
		mQueue:     reg.Gauge("server.queue.depth"),
		mAdmitted:  reg.Counter("server.requests.admitted"),
		mShed:      reg.Counter("server.requests.shed"),
		mBreaker:   reg.Counter("server.requests.breaker_fastfail"),
		mDedup:     reg.Counter("server.requests.deduped"),
		mCompleted: reg.Counter("server.requests.completed"),
		mFailed:    reg.Counter("server.requests.failed"),
		mLatency:   reg.Histogram("server.request_latency_us"),
	}
	s.latencyEWMA.Store(int64(time.Second / time.Microsecond))
	return s
}

// Scheduler exposes the underlying memo-cache scheduler (artifact flushing,
// stats).
func (s *Server) Scheduler() *experiments.Scheduler { return s.sched }

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/plt", s.handlePLTIndex)
	mux.HandleFunc("GET /v1/plt/{benchmark}", s.handleSnapshot)
	mux.HandleFunc("GET /v1/plt/{benchmark}/{hash}", s.handleSnapshotAt)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes one JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds estimates how long a shed client should back off: the
// expected time for the queue to make room, from the latency EWMA and the
// worker width, clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	lat := time.Duration(s.latencyEWMA.Load()) * time.Microsecond
	est := lat * time.Duration(len(s.queueSlots)+1) / time.Duration(s.cfg.Workers)
	sec := int(math.Ceil(est.Seconds()))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// observeLatency feeds one completed request's wall time into the EWMA
// (alpha 1/4) and the latency histogram.
func (s *Server) observeLatency(d time.Duration) {
	us := d.Microseconds()
	s.latMu.Lock()
	s.mLatency.Observe(float64(us))
	s.latMu.Unlock()
	for {
		old := s.latencyEWMA.Load()
		next := old + (us-old)/4
		if next <= 0 {
			next = 1
		}
		if s.latencyEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// record returns the shared record for id, creating it in "running" state.
// Creation may evict the oldest resolved records to keep the map bounded.
func (s *Server) record(id string, key experiments.RunKey) *runRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	if !ok {
		rec = &runRecord{id: id, key: key, status: "running"}
		s.records[id] = rec
		s.recOrder = append(s.recOrder, id)
		s.evictRecordsLocked()
	}
	return rec
}

// evictRecordsLocked drops the oldest resolved records until the map is back
// under MaxRecords. Records still "running" are kept — their detached run
// will resolve them, and their count is bounded by the runs in flight — so
// the map can transiently exceed the cap by at most that amount.
func (s *Server) evictRecordsLocked() {
	if len(s.records) <= s.cfg.MaxRecords {
		return
	}
	kept := s.recOrder[:0]
	for i, id := range s.recOrder {
		if len(s.records) <= s.cfg.MaxRecords {
			kept = append(kept, s.recOrder[i:]...)
			break
		}
		rec := s.records[id]
		rec.mu.Lock()
		running := rec.status == "running"
		rec.mu.Unlock()
		if running {
			kept = append(kept, id)
			continue
		}
		delete(s.records, id)
	}
	s.recOrder = kept
}

func (s *Server) lookupRecord(id string) (*runRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	return rec, ok
}

// handleSubmit is POST /v1/runs: admission, breaker, deadline, run, respond.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"server is draining"})
		return
	}
	req, err := DecodeRunRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	if err := req.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	key, err := req.Spec(s.cfg.Scale, s.cfg.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}

	// Bounded admission: a full queue sheds immediately — the request never
	// allocates a goroutine, a scheduler entry, or a worker.
	select {
	case s.queueSlots <- struct{}{}:
	default:
		s.mShed.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errBody{"admission queue full"})
		return
	}
	// Re-check draining under drainMu before joining the inflight group: a
	// request that raced past the fast-path check above must not Add after
	// Drain flipped the flag and began inflight.Wait.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		<-s.queueSlots
		s.mQueue.Set(int64(len(s.queueSlots)))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"server is draining"})
		return
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	s.mQueue.Set(int64(len(s.queueSlots)))
	defer func() {
		<-s.queueSlots
		s.mQueue.Set(int64(len(s.queueSlots)))
		s.inflight.Done()
	}()
	s.mAdmitted.Add(1)

	// Circuit breaker, scoped to this (benchmark, mode). Checked after
	// admission so a half-open probe that is admitted always resolves.
	bk := breakerKey{bench: key.Bench, mode: key.Mode}
	br := s.breakers.get(bk)
	ok, probe, retry := br.allow()
	if !ok {
		s.mBreaker.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(int(math.Ceil(retry.Seconds()))))
		w.Header().Set("X-Fssim-Breaker", "open")
		writeJSON(w, http.StatusServiceUnavailable,
			errBody{fmt.Sprintf("circuit open for %s/%s: recent runs failing", key.Bench, key.Mode)})
		return
	}

	id := RunID(key)
	rec := s.record(id, key)

	// The request waits at most its deadline; the simulation itself runs
	// detached under the server lifetime + per-run timeout, so an abandoned
	// wait leaves the shared run for coalesced clients and the memo cache.
	ctx, cancel := context.WithTimeout(r.Context(), req.deadline(s.cfg.Deadline))
	defer cancel()

	// The breaker and the run record are resolved from the detached run's
	// actual outcome, exactly once per distinct execution — not from this
	// waiter. A probe whose client gives up therefore still closes or
	// re-opens the circuit when its run finishes, and an abandoned run's
	// record still flips to done/failed for later GETs.
	start := s.cfg.now()
	out, status, err := s.sched.LookupNotify(ctx, key, func(out experiments.Outcome, err error) {
		s.completeRun(rec, br, out, err)
	})
	s.observeLatency(s.cfg.now().Sub(start))
	if status != experiments.LookupMiss {
		s.mDedup.Add(1)
	}
	if probe && status == experiments.LookupHit {
		// The probe was served from the memo cache: no fresh execution will
		// report an outcome, so resolve the half-open state from the cached
		// one here (failed entries are evicted, so a hit is a success unless
		// it carries a degraded accelerator).
		br.record(err != nil || (s.degraded(out) && s.breakers.cfg.DegradeAsFailure))
	}
	w.Header().Set("X-Fssim-Cache", status.String())
	w.Header().Set("X-Fssim-Run-Id", id)

	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// This waiter gave up (deadline or disconnect); the run itself
			// may still complete for others and settles the breaker and the
			// record via the completion hook.
			s.mFailed.Add(1)
			if errors.Is(err, context.DeadlineExceeded) {
				writeJSON(w, http.StatusGatewayTimeout, errBody{"deadline exceeded waiting for run " + id})
			} else {
				writeJSON(w, http.StatusServiceUnavailable, errBody{"request canceled"})
			}
			return
		}
		// The run itself failed (panic, per-run timeout, storm of faults, or
		// drain cancellation).
		s.mFailed.Add(1)
		var re *experiments.RunError
		code := http.StatusInternalServerError
		if errors.As(err, &re) && re.Timeout {
			code = http.StatusGatewayTimeout
		}
		writeJSON(w, code, errBody{err.Error()})
		return
	}

	s.mCompleted.Add(1)
	body, degraded, merr := s.responseBody(id, key, out)
	if merr != nil {
		writeJSON(w, http.StatusInternalServerError, errBody{merr.Error()})
		return
	}
	// Also settle the record here (not only in the completion hook) so a GET
	// issued right after this response never observes a stale "running". The
	// body is a pure function of (id, key, out), so the double write is
	// byte-identical.
	rec.settle("done", body, "")
	if degraded {
		w.Header().Set("X-Fssim-Degraded", "true")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// degraded reports whether a completed run's accelerator ended unhealthy (the
// watchdog demoted its predictions).
func (s *Server) degraded(out experiments.Outcome) bool {
	return out.Accel != nil && !out.Accel.Health().Healthy()
}

// responseBody builds the deterministic 200 body for a completed run: a pure
// function of (id, key, outcome), so every path that renders it — the waiter,
// the detached completion hook, GET /v1/runs/{id} — produces identical bytes.
func (s *Server) responseBody(id string, key experiments.RunKey, out experiments.Outcome) (body []byte, degraded bool, err error) {
	degraded = s.degraded(out)
	resp := RunResponse{
		ID:        id,
		Key:       key.String(),
		Benchmark: key.Bench,
		Mode:      key.Mode.String(),
		Cycles:    out.Result.Stats.Cycles,
		Insts:     out.Result.Stats.Insts,
		IPC:       out.Result.Stats.IPC(),
		L2Misses:  out.Result.Stats.Mem.L2.Misses,
		Coverage:  out.Result.Stats.Coverage(),
		Degraded:  degraded,
	}
	if rep := out.Sample; rep != nil {
		resp.Sample = &SampleInfo{
			Strata:       rep.Strata,
			Detailed:     rep.Detailed,
			Extrapolated: rep.Extrapolated,
			Reduction:    rep.Reduction(),
			CIRel:        rep.RelCI(out.Result.Stats.Cycles),
		}
	}
	if p := out.Transfer; p != nil {
		resp.Transfer = &TransferInfo{
			DonorBenchmark: p.DonorBench,
			DonorAddr:      p.DonorAddr,
			Distance:       p.Distance,
			Scale:          p.Scale,
		}
	}
	body, err = json.Marshal(resp)
	if err != nil {
		return nil, degraded, err
	}
	return append(body, '\n'), degraded, nil
}

// completeRun is the detached-execution completion hook: invoked exactly once
// per distinct run (even if every waiter abandoned it), it feeds the run's
// final outcome to the circuit breaker and settles the shared record.
func (s *Server) completeRun(rec *runRecord, br *breaker, out experiments.Outcome, err error) {
	if err != nil {
		br.record(true)
		rec.settle("failed", nil, err.Error())
		return
	}
	degraded := s.degraded(out)
	br.record(degraded && s.breakers.cfg.DegradeAsFailure)
	body, _, merr := s.responseBody(rec.id, rec.key, out)
	if merr != nil {
		rec.settle("failed", nil, merr.Error())
		return
	}
	rec.settle("done", body, "")
}

// handleGet is GET /v1/runs/{id}: the stored (byte-identical) result body of
// a completed run, or its current status.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.lookupRecord(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{"unknown run id"})
		return
	}
	rec.mu.Lock()
	status, body, errMsg := rec.status, rec.body, rec.errMsg
	rec.mu.Unlock()
	switch status {
	case "done":
		w.Header().Set("X-Fssim-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	case "failed":
		writeJSON(w, http.StatusInternalServerError, errBody{errMsg})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "running"})
	}
}

// handleTrace is GET /v1/runs/{id}/trace: the completed run's Chrome
// trace-event JSON (requires Config.Trace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Trace {
		writeJSON(w, http.StatusNotFound, errBody{"tracing disabled (start the server with tracing enabled)"})
		return
	}
	id := r.PathValue("id")
	rec, ok := s.lookupRecord(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{"unknown run id"})
		return
	}
	tr, ok := s.sched.TraceOf(rec.key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{"no trace for run (not finished, or evicted)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChrome(w, rec.key.String(), tr); err != nil {
		// Headers are gone; all we can do is abort the body.
		return
	}
}

// handleSnapshot is GET /v1/plt/{benchmark}: the newest persisted PLT
// snapshot for the benchmark, as the raw pltstore bytes. A client can drop
// the body into another process's warm dir to ship learned state between
// hosts. 404 when persistence is disabled, the benchmark has no snapshot, or
// the newest file no longer decodes — a corrupt store never serves garbage.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.sched.WarmDir() == "" {
		writeJSON(w, http.StatusNotFound, errBody{"PLT persistence disabled (start the server with a warm dir)"})
		return
	}
	bench := r.PathValue("benchmark")
	path, ok := s.sched.WarmSnapshotPath(bench)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{"no PLT snapshot for benchmark " + bench})
		return
	}
	writeSnapshot(w, path, func(*pltstore.Snapshot) bool { return true })
}

// writeSnapshot serves the snapshot file at path as raw pltstore bytes. The
// file is re-decoded first and must satisfy want: a file that rotted or was
// transplanted since it was listed or indexed is a 404, never garbage.
func writeSnapshot(w http.ResponseWriter, path string, want func(*pltstore.Snapshot) bool) {
	data, err := os.ReadFile(path)
	var snap *pltstore.Snapshot
	if err == nil {
		snap, err = pltstore.Decode(data)
	}
	if err != nil || !want(snap) {
		writeJSON(w, http.StatusNotFound, errBody{"snapshot " + filepath.Base(path) + " is unreadable, corrupt or transplanted"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fssim-Plt-Format-Version", strconv.Itoa(pltstore.FormatVersion))
	w.Header().Set("X-Fssim-Plt-Key", snap.Key)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// pltIndexBody is the JSON body of GET /v1/plt: the snapshots this node's
// warm store currently advertises to peers.
type pltIndexBody struct {
	Snapshots []pltstore.IndexEntry `json:"snapshots"`
}

// handlePLTIndex is GET /v1/plt: the store's snapshot index, the anchor of
// the anti-entropy protocol — peers diff it against their own store and
// fetch what they are missing. Only decodable, validated snapshots are
// advertised. An empty store (or disabled persistence) is an empty index,
// not an error: "I have nothing for you" is a valid anti-entropy answer.
func (s *Server) handlePLTIndex(w http.ResponseWriter, r *http.Request) {
	body := pltIndexBody{Snapshots: []pltstore.IndexEntry{}}
	if store := s.sched.WarmStore(); store != nil {
		if idx, err := store.Index(); err == nil && idx != nil {
			body.Snapshots = idx
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSnapshotAt is GET /v1/plt/{benchmark}/{hash}: the exact snapshot a
// peer's index advertised, as raw pltstore bytes. Unlike the newest-wins
// /v1/plt/{benchmark}, the address is explicit, so a gossiping peer fetches
// precisely what it diffed. The file is re-decoded before serving — a store
// that rotted since indexing serves 404, never garbage.
func (s *Server) handleSnapshotAt(w http.ResponseWriter, r *http.Request) {
	store := s.sched.WarmStore()
	if store == nil {
		writeJSON(w, http.StatusNotFound, errBody{"PLT persistence disabled (start the server with a warm dir)"})
		return
	}
	bench := r.PathValue("benchmark")
	hash, err := pltstore.ParseHash(r.PathValue("hash"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	writeSnapshot(w, store.Path(bench, hash), func(snap *pltstore.Snapshot) bool {
		return snap.Benchmark == bench && snap.LearnHash == hash
	})
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyBody is the GET /readyz JSON in both branches: the status-code
// semantics (200 ready / 503 draining) are unchanged, but the body now
// always carries the drain flag and the load signals a fleet router's
// ejection logic weighs — a bare 200/503 is not enough to rank backends.
type readyBody struct {
	Status       string `json:"status"`
	Draining     bool   `json:"draining"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	BreakersOpen int    `json:"breakers_open"`
}

// handleReadyz reports readiness: draining (or drained) servers are not
// ready, so load balancers stop routing before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyBody{
		Status:       "ready",
		Draining:     s.draining.Load(),
		QueueDepth:   len(s.queueSlots),
		QueueCap:     cap(s.queueSlots),
		BreakersOpen: s.breakers.openCount(),
	}
	status := http.StatusOK
	if body.Draining {
		body.Status, status = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// Registry exposes the server's serving-path metrics registry so sibling
// subsystems sharing the process (the PLT gossiper, notably) can register
// their instruments next to the server's own and appear in GET /metrics.
// Histograms registered here are written under the server's latency mutex;
// external writers must be single-writer per histogram, like trace requires.
func (s *Server) Registry() *trace.Registry { return s.reg }

// handleMetrics dumps the serving-path instruments followed by the
// scheduler's cache/worker counters, in the PR 3 plaintext format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.latMu.Lock()
	err := s.reg.WriteText(w)
	s.latMu.Unlock()
	if err != nil {
		return
	}
	_ = s.sched.WriteHarnessMetrics(w)
}

// Drain performs the graceful-shutdown sequence: stop admitting, wait for
// in-flight requests until ctx expires, then cancel the remaining runs and
// wait for them to unwind, and finally flush trace/metrics artifacts. Safe
// to call once; Serve calls it on context cancellation.
func (s *Server) Drain(ctx context.Context) error {
	// The drainMu handshake with handleSubmit guarantees no admission can
	// inflight.Add after the flag flip is visible here.
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: abort in-flight simulations cooperatively. Their
		// waiters resolve as the runs unwind.
		s.cancelRuns()
		<-done
	}
	// Stop the detached simulations that have no waiter left, too.
	s.cancelRuns()
	// The flush gets its own bounded grace budget. Runs canceled above are
	// unwinding; their entries resolve quickly, and whatever did complete must
	// still be persisted — but if ctx already expired we must not flush with a
	// dead context (every wait would be skipped), nor unboundedly (a wedged
	// run would hang shutdown forever).
	fctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
	}
	return s.FlushArtifactsCtx(fctx)
}

// FlushArtifacts writes the configured trace and metrics artifacts (no-op
// when neither path is set). Aborted runs' partial traces are included, so
// an interrupted server still leaves usable diagnostics.
func (s *Server) FlushArtifacts() error {
	return s.FlushArtifactsCtx(context.Background())
}

// FlushArtifactsCtx is FlushArtifacts bounded by ctx: runs still executing
// at the deadline are skipped (and reported) instead of wedging the flush;
// everything already completed is persisted regardless.
func (s *Server) FlushArtifactsCtx(ctx context.Context) error {
	return WriteArtifactsCtx(ctx, s.sched, s.cfg.TracePath, s.cfg.MetricsPath)
}

// Addr returns the bound listen address once Serve is up (useful with ":0").
func (s *Server) Addr() string {
	<-s.started
	v, _ := s.addr.Load().(string)
	return v
}

// Serve listens on cfg.Addr and serves until ctx is canceled, then drains
// gracefully (bounded by DrainTimeout) and flushes artifacts. It returns nil
// after a clean drain — the exit-0 contract fssimd relies on.
func (s *Server) Serve(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr().String())
	close(s.started)
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.cancelRuns()
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	derr := s.Drain(dctx)
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	defer hcancel()
	herr := hs.Shutdown(hctx)
	return errors.Join(derr, herr)
}
