package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/kernel"
	"fssim/internal/machine"
	"fssim/internal/workload"
)

// Misbehaving benchmarks the serving tests drive. Hidden keeps them out of
// workload.Names() (and therefore out of every real experiment).
var (
	flakyFail atomic.Bool           // srv-flaky panics while set
	gateMu    sync.Mutex            // guards gate
	gate      = make(chan struct{}) // srv-gate blocks until the current gate closes
)

func currentGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gate
}

func resetGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	gate = make(chan struct{})
	return gate
}

func closeGate() {
	gateMu.Lock()
	defer gateMu.Unlock()
	select {
	case <-gate:
	default:
		close(gate)
	}
}

func init() {
	workload.Register(workload.Benchmark{
		Name: "srv-ok", Hidden: true,
		Description: "small well-behaved serving-test workload",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("ok", func(p *kernel.Proc) { p.U.Mix(50_000) })
	})
	workload.Register(workload.Benchmark{
		Name: "srv-spin", Hidden: true,
		Description: "spins forever; only cancellation ends it",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("spin", func(p *kernel.Proc) {
			for {
				p.U.Mix(10_000)
			}
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-flaky", Hidden: true,
		Description: "panics while flakyFail is set, succeeds otherwise",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("flaky", func(p *kernel.Proc) {
			if flakyFail.Load() {
				panic("deliberate flaky failure")
			}
			p.U.Mix(20_000)
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-gate", Hidden: true,
		Description: "blocks until the test releases the gate",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("gate", func(p *kernel.Proc) {
			<-currentGate()
			p.U.Mix(1_000)
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-gate-fail", Hidden: true,
		Description: "blocks until the gate releases, then panics",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("gatefail", func(p *kernel.Proc) {
			<-currentGate()
			panic("deliberate post-gate failure")
		})
	})
}

// newTestServer builds a Server plus an httptest front and a Client, and
// wires teardown: gates released, detached runs canceled.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		closeGate()
		s.cancelRuns()
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

func okRequest(seed int64) RunRequest {
	return RunRequest{Benchmark: "srv-ok", Mode: "full", Scale: 0.1, Seed: seed}
}

// TestSubmitRepeatByteIdentical: the determinism contract — an identical
// repeat request is served from the memo cache with a byte-identical body,
// and GET /v1/runs/{id} returns those same bytes.
func TestSubmitRepeatByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	first, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Cache != "miss" {
		t.Errorf("first request cache status = %q, want miss", first.Cache)
	}
	if first.Response.Cycles == 0 || first.Response.ID == "" {
		t.Errorf("implausible response: %+v", first.Response)
	}

	second, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if second.Cache != "hit" {
		t.Errorf("repeat request cache status = %q, want hit", second.Cache)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Errorf("repeat response not byte-identical:\n%s\n%s", first.Body, second.Body)
	}

	got, err := c.Get(ctx, first.Response.ID)
	if err != nil {
		t.Fatalf("GET by id: %v", err)
	}
	if !bytes.Equal(got.Body, first.Body) {
		t.Errorf("GET /v1/runs/{id} body differs from POST body")
	}
}

// TestAdmissionBound is robustness clause (a): requests beyond the queue
// capacity are shed with 429 + Retry-After, and shedding allocates nothing —
// the server's goroutine count stays bounded through the storm.
func TestAdmissionBound(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Queue: 2, Workers: 1, Deadline: 30 * time.Second})
	ctx := context.Background()

	// Fill the queue: one gated run occupying the worker, one queued behind.
	results := make(chan error, 2)
	for i := int64(1); i <= 2; i++ {
		req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: i}
		go func() {
			_, err := c.Run(ctx, req)
			results <- err
		}()
	}
	waitFor(t, func() bool { return len(s.queueSlots) == 2 })

	g0 := runtime.NumGoroutine()
	const storm = 25
	codes := make(chan error, storm)
	for i := 0; i < storm; i++ {
		req := RunRequest{Benchmark: "srv-ok", Scale: 0.1, Seed: int64(100 + i)}
		go func() {
			_, err := c.Run(ctx, req)
			codes <- err
		}()
	}
	for i := 0; i < storm; i++ {
		err := <-codes
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("storm request %d: got %v, want ErrOverloaded (429)", i, err)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
			t.Errorf("shed response missing Retry-After: %v", err)
		}
	}
	// Shed requests left nothing behind: goroutines return to (about) the
	// pre-storm level — no per-request fan-out survives.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= g0+8 })

	if shed := s.mShed.Value(); shed != storm {
		t.Errorf("shed counter = %d, want %d", shed, storm)
	}
	closeGate()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed after gate release: %v", err)
		}
	}
}

// TestWedgedRunDeadline is robustness clause (b): a wedged simulation returns
// a deadline error to its client without blocking other clients.
func TestWedgedRunDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, RunTimeout: 5 * time.Second})
	ctx := context.Background()

	wedged := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, RunRequest{
			Benchmark: "srv-spin", Faults: "storm", Scale: 0.1, DeadlineMS: 150,
		})
		wedged <- err
	}()

	// A healthy client on the same server is unaffected.
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("healthy request blocked by wedged run: %v", err)
	}

	select {
	case err := <-wedged:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("wedged run returned %v, want ErrDeadline (504)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged request did not resolve at its deadline")
	}
}

// TestBreakerOpensAndRecovers is robustness clause (c): a failure storm on
// one (benchmark, mode) opens its breaker — new requests fast-fail 503 — and
// a half-open probe closes it again once the benchmark recovers.
func TestBreakerOpensAndRecovers(t *testing.T) {
	flakyFail.Store(true)
	defer flakyFail.Store(false)
	_, c := newTestServer(t, Config{
		Workers: 2,
		Breaker: BreakerConfig{Window: 4, FailureThreshold: 0.5, MinSamples: 2, Cooldown: 100 * time.Millisecond},
	})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-flaky", Scale: 0.1}

	// Two failures reach MinSamples at 100% failure rate: breaker opens.
	for i := 0; i < 2; i++ {
		if _, err := c.Run(ctx, req); err == nil {
			t.Fatalf("flaky run %d unexpectedly succeeded", i)
		}
	}
	_, err := c.Run(ctx, req)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("breaker did not fast-fail: %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Errorf("breaker 503 missing Retry-After: %v", err)
	}

	// An unrelated benchmark is unaffected: breakers are per-(bench, mode).
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("breaker for srv-flaky leaked into srv-ok: %v", err)
	}

	// After the cooldown the half-open probe runs for real — and succeeds
	// now that the benchmark has recovered, closing the breaker.
	flakyFail.Store(false)
	time.Sleep(120 * time.Millisecond)
	probe, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if probe.Response.Cycles == 0 {
		t.Error("probe response implausible")
	}
	if _, err := c.Run(ctx, req); err != nil {
		t.Fatalf("breaker did not close after successful probe: %v", err)
	}
}

// TestAbandonedProbeDoesNotWedgeBreaker: the half-open probe's waiter giving
// up (here: a 1ms deadline) must not strand the circuit in half-open — the
// detached run's completion resolves the breaker even with no waiter left.
func TestAbandonedProbeDoesNotWedgeBreaker(t *testing.T) {
	flakyFail.Store(true)
	defer flakyFail.Store(false)
	s, c := newTestServer(t, Config{
		Workers: 2,
		Breaker: BreakerConfig{Window: 4, FailureThreshold: 0.5, MinSamples: 2, Cooldown: 100 * time.Millisecond},
	})
	ctx := context.Background()

	// Two failed runs (distinct keys) open the breaker.
	for i := int64(1); i <= 2; i++ {
		if _, err := c.Run(ctx, RunRequest{Benchmark: "srv-flaky", Scale: 0.1, Seed: i}); err == nil {
			t.Fatalf("flaky run %d unexpectedly succeeded", i)
		}
	}
	br := s.breakers.get(breakerKey{bench: "srv-flaky", mode: machine.FullSystem})
	waitFor(t, func() bool { return br.snapshot() == breakerOpen })

	// The benchmark recovers. After the cooldown, a probe whose client waits
	// only 1ms abandons the run almost surely before it completes.
	flakyFail.Store(false)
	time.Sleep(120 * time.Millisecond)
	_, _ = c.Run(ctx, RunRequest{Benchmark: "srv-flaky", Scale: 0.1, Seed: 3, DeadlineMS: 1})

	// The detached completion must close the circuit; follow-up requests are
	// served, not fast-failed.
	waitFor(t, func() bool { return br.snapshot() == breakerClosed })
	if _, err := c.Run(ctx, RunRequest{Benchmark: "srv-flaky", Scale: 0.1, Seed: 4}); err != nil {
		t.Fatalf("breaker wedged after abandoned probe: %v", err)
	}
}

// TestAbandonedRunStillResolvesRecord: when every waiter gives up before the
// run completes, the detached completion still settles the run record, so
// GET /v1/runs/{id} serves the documented "result may become available later
// under the same id" contract instead of reporting 202 forever.
func TestAbandonedRunStillResolvesRecord(t *testing.T) {
	resetGate()
	_, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: 11, DeadlineMS: 50}

	_, err := c.Run(ctx, req)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("gated run with 50ms deadline returned %v, want ErrDeadline", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("504 without APIError: %v", err)
	}
	id := strings.TrimPrefix(ae.Message, "deadline exceeded waiting for run ")
	if id == ae.Message || id == "" {
		t.Fatalf("504 body does not name the run id: %q", ae.Message)
	}

	// Still gated: the record reports running (202).
	if res, err := c.Get(ctx, id); err != nil || res != nil {
		t.Fatalf("Get before completion = (%v, %v), want 202 (nil, nil)", res, err)
	}

	// Release the run with no waiter attached; the detached completion must
	// settle the record.
	closeGate()
	var got *RunResult
	waitFor(t, func() bool {
		res, err := c.Get(ctx, id)
		got = res
		return err == nil && res != nil
	})
	if got.Response.ID != id || got.Response.Cycles == 0 {
		t.Errorf("implausible settled record: %+v", got.Response)
	}

	// The settled body is byte-identical to what a fresh POST now serves.
	req.DeadlineMS = 0
	fresh, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("post-release run failed: %v", err)
	}
	if !bytes.Equal(fresh.Body, got.Body) {
		t.Errorf("settled record body differs from POST body:\n%s\n%s", got.Body, fresh.Body)
	}
}

// TestCoalescedFailureFeedsBreakerOnce: one failed execution shared by three
// coalesced waiters counts as one breaker outcome, not three — otherwise a
// single popular failing run could open the circuit by itself.
func TestCoalescedFailureFeedsBreakerOnce(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second,
		Breaker: BreakerConfig{Window: 8, FailureThreshold: 0.5, MinSamples: 3, Cooldown: time.Second}})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-gate-fail", Scale: 0.1, Seed: 5}

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := c.Run(ctx, req)
			errs <- err
		}()
	}
	// All three are attached to the single in-flight run (1 miss + 2 joins)
	// before the gate releases it into its panic.
	waitFor(t, func() bool {
		st := s.sched.Stats()
		return st.Misses == 1 && st.Hits == 2
	})
	closeGate()
	for i := 0; i < 3; i++ {
		if err := <-errs; err == nil {
			t.Fatal("coalesced run on a panicking benchmark succeeded")
		}
	}

	br := s.breakers.get(breakerKey{bench: "srv-gate-fail", mode: machine.FullSystem})
	waitFor(t, func() bool {
		br.mu.Lock()
		defer br.mu.Unlock()
		return br.n == 1
	})
	br.mu.Lock()
	n, fails, state := br.n, br.fails, br.state
	br.mu.Unlock()
	if n != 1 || fails != 1 {
		t.Errorf("breaker ring = %d outcomes / %d failures for one shared run, want 1/1", n, fails)
	}
	if state != breakerClosed {
		t.Errorf("breaker state = %v after a single failure below MinSamples, want closed", state)
	}
}

// TestRunRecordsBounded: the per-id record map must not grow without bound —
// past MaxRecords the oldest resolved records are evicted (404), while the
// newest stay addressable.
func TestRunRecordsBounded(t *testing.T) {
	s, c := newTestServer(t, Config{MaxRecords: 2})
	ctx := context.Background()
	var first, last *RunResult
	for i := int64(1); i <= 5; i++ {
		res, err := c.Run(ctx, okRequest(i))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
		}
		last = res
	}
	s.mu.Lock()
	n := len(s.records)
	s.mu.Unlock()
	if n > 2 {
		t.Errorf("records map holds %d entries, want <= MaxRecords=2", n)
	}
	if res, err := c.Get(ctx, last.Response.ID); err != nil || res == nil {
		t.Errorf("newest record unavailable: (%v, %v)", res, err)
	}
	_, err := c.Get(ctx, first.Response.ID)
	if err == nil {
		t.Error("oldest record still addressable past the bound")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
			t.Errorf("evicted record error = %v, want 404", err)
		}
	}
}

// TestDedupSingleflight is robustness clause (e): two concurrent identical
// requests share one simulation and produce byte-identical bodies.
func TestDedupSingleflight(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: 7}

	type reply struct {
		res *RunResult
		err error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := c.Run(ctx, req)
			replies <- reply{res, err}
		}()
	}
	// Both requests are in the building before the run can finish.
	waitFor(t, func() bool { return len(s.queueSlots) == 2 })
	closeGate()

	a, b := <-replies, <-replies
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent identical requests failed: %v / %v", a.err, b.err)
	}
	if !bytes.Equal(a.res.Body, b.res.Body) {
		t.Errorf("concurrent identical requests differ:\n%s\n%s", a.res.Body, b.res.Body)
	}
	statuses := []string{a.res.Cache, b.res.Cache}
	miss := 0
	for _, st := range statuses {
		if st == "miss" {
			miss++
		} else if st != "coalesced" && st != "hit" {
			t.Errorf("unexpected cache status %q", st)
		}
	}
	if miss != 1 {
		t.Errorf("cache statuses = %v, want exactly one miss", statuses)
	}
	if st := s.sched.Stats(); st.Misses != 1 {
		t.Errorf("scheduler executed %d simulations for 2 identical requests, want 1", st.Misses)
	}
	if s.mDedup.Value() != 1 {
		t.Errorf("dedup counter = %d, want 1", s.mDedup.Value())
	}
}

// TestDrain is robustness clause (d): draining stops admission, resolves
// in-flight runs (canceling them at the drain deadline), and flushes trace
// and metrics artifacts — including the aborted runs' partial traces.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	s, c := newTestServer(t, Config{
		Workers: 2, Deadline: 30 * time.Second, RunTimeout: -1,
		TracePath: tracePath, MetricsPath: metricsPath,
	})
	ctx := context.Background()

	// A run that will still be in flight when the drain starts.
	spinErr := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, RunRequest{Benchmark: "srv-spin", Scale: 0.1})
		spinErr <- err
	}()
	// And one completed run whose trace must survive into the artifacts.
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("setup run failed: %v", err)
	}
	waitFor(t, func() bool { return len(s.queueSlots) == 1 })

	dctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()

	// While draining: no new admissions, readyz reports not-ready.
	waitFor(t, func() bool { return s.draining.Load() })
	if _, err := c.Run(ctx, okRequest(99)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("draining server admitted a request: %v", err)
	}
	if c.Ready(ctx) {
		t.Error("draining server reports ready")
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	// The in-flight spin run was resolved (canceled), not abandoned.
	select {
	case err := <-spinErr:
		if err == nil {
			t.Error("endless run reported success after drain cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request still unresolved after drain")
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace artifact not flushed: %v", err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) {
		t.Error("trace artifact malformed")
	}
	if !strings.Contains(string(trace), "!aborted") {
		t.Error("canceled run's partial trace missing from the drain artifact")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics artifact not flushed: %v", err)
	}
	for _, want := range []string{"# run ", "sched.distinct"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics artifact missing %q", want)
		}
	}
}

// TestServeDrainExitsClean drives the full Serve lifecycle: listen, serve a
// request, cancel the context, and return nil after a clean drain (the
// exit-0 contract fssimd relies on for SIGTERM).
func TestServeDrainExitsClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()
	c := NewClient("http://" + s.Addr())

	if _, err := c.Run(context.Background(), okRequest(1)); err != nil {
		t.Fatalf("run against Serve: %v", err)
	}
	if !c.Ready(context.Background()) {
		t.Error("serving server not ready")
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestBadRequests: malformed submissions fail fast with 400 and never reach
// the scheduler.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{})
	hc := &http.Client{}
	post := func(body string) int {
		t.Helper()
		resp, err := hc.Post(c.base+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]string{
		"empty":            ``,
		"not json":         `}{`,
		"unknown field":    `{"benchmark":"srv-ok","bogus":1}`,
		"unknown bench":    `{"benchmark":"no-such-bench"}`,
		"unknown mode":     `{"benchmark":"srv-ok","mode":"warp"}`,
		"unknown strategy": `{"benchmark":"srv-ok","mode":"accel","strategy":"vibes"}`,
		"unknown faults":   `{"benchmark":"srv-ok","faults":"apocalypse"}`,
		"bad sample spec":  `{"benchmark":"srv-ok","sample":"budget=0"}`,
		"bad transfer":     `{"benchmark":"srv-ok","mode":"accel","transfer":"l2=nope"}`,
		"transfer nonacc":  `{"benchmark":"srv-ok","mode":"full","transfer":"store"}`,
		"huge scale":       `{"benchmark":"srv-ok","scale":1000}`,
		"negative seed":    `{"benchmark":"srv-ok","seed":-1}`,
		"trailing":         `{"benchmark":"srv-ok"} garbage`,
	}
	for name, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if st := s.sched.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("bad requests reached the scheduler: %+v", st)
	}
}

// TestTraceEndpoint: traced servers serve per-run Chrome traces; untraced
// servers say so.
func TestTraceEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Trace: true})
	ctx := context.Background()
	res, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/v1/runs/" + res.Response.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace endpoint returned no events (err %v)", err)
	}
	if resp, err := http.Get(c.base + "/v1/runs/nope/trace"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id trace: status %d, want 404", resp.StatusCode)
		}
	}

	_, untraced := newTestServer(t, Config{})
	if res2, err := untraced.Run(ctx, okRequest(1)); err == nil {
		if resp, err := http.Get(untraced.base + "/v1/runs/" + res2.Response.ID + "/trace"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("untraced server trace: status %d, want 404", resp.StatusCode)
			}
		}
	}
}

// TestMetricsEndpoint: the serving-path instruments are exported in the PR 3
// plaintext format alongside the scheduler's counters.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.Run(context.Background(), okRequest(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"server.requests.admitted 1",
		"server.queue.depth",
		"server.request_latency_us",
		"sched.distinct",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestDeterministicRunID: ids are a pure function of the request, and
// distinct requests get distinct ids.
// TestSampledRun: a request with a sampling spec is a distinct cache entry
// from its unsampled twin, reports the estimator's split and CI in the
// response, and every spelling of one policy shares a run id (and therefore
// a memo entry and a fleet ring position).
func TestSampledRun(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	req := RunRequest{Benchmark: "ab-rand", Mode: "full", Scale: 0.25, Seed: 1}
	plain, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Response.Sample != nil {
		t.Error("unsampled response carries sample info")
	}
	req.Sample = "default"
	sampled, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Response.ID == plain.Response.ID {
		t.Error("sampled and unsampled runs share an id")
	}
	if sampled.Response.Sample == nil {
		t.Fatal("sampled response missing sample info")
	}
	if sampled.Response.Sample.Detailed <= 0 || sampled.Response.Sample.Extrapolated <= 0 {
		t.Errorf("degenerate sampled split: %+v", sampled.Response.Sample)
	}
	if sampled.Response.Sample.Reduction <= 1 {
		t.Errorf("reduction %.2f, want > 1", sampled.Response.Sample.Reduction)
	}
	req.Sample = "budget=8,min=2,pilot=64,range=0.05,refresh=64" // "default", spelled out
	spelled, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if spelled.Response.ID != sampled.Response.ID {
		t.Error("spellings of one sampling policy produced distinct run ids")
	}
}

// TestTransferRun: an accel request with a "l2=" transfer directive imports
// the sibling donor and reports provenance; a "store" directive on a server
// with no warm store is rejected — counted, cold, and provenance-free.
func TestTransferRun(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	base := RunRequest{Benchmark: "ab-rand", Mode: "accel", Scale: 0.25, Seed: 1}
	cold, err := c.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Response.Transfer != nil {
		t.Error("cold response carries transfer info")
	}

	req := base
	req.Transfer = "l2=524288"
	xfer, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Response.ID == cold.Response.ID {
		t.Error("transferred and cold runs share an id")
	}
	ti := xfer.Response.Transfer
	if ti == nil {
		t.Fatal("transferred response missing transfer info")
	}
	if ti.DonorBenchmark != "ab-rand" || ti.Distance != 1.0 {
		t.Errorf("provenance %+v, want the ab-rand sibling at distance 1.0", ti)
	}
	if ti.Scale <= 0 || ti.DonorAddr == "" {
		t.Errorf("degenerate provenance %+v", ti)
	}

	req.Transfer = "store"
	rej, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Response.Transfer != nil {
		t.Errorf("rejected store directive still reports transfer info %+v", rej.Response.Transfer)
	}
	if rej.Response.Cycles != cold.Response.Cycles {
		t.Errorf("rejected transfer's cycles %d differ from cold %d", rej.Response.Cycles, cold.Response.Cycles)
	}
	if st := s.sched.Stats(); st.TransferHits != 1 || st.TransferRejected != 1 {
		t.Errorf("transfer hits %d rejected %d, want 1 and 1", st.TransferHits, st.TransferRejected)
	}
}

func TestDeterministicRunID(t *testing.T) {
	k1 := experiments.RunSpec{Bench: "srv-ok", Scale: 0.1, Seed: 1}.Key()
	k2 := experiments.RunSpec{Bench: "srv-ok", Scale: 0.1, Seed: 1}.Key()
	k3 := experiments.RunSpec{Bench: "srv-ok", Scale: 0.1, Seed: 2}.Key()
	if RunID(k1) != RunID(k2) {
		t.Error("identical specs produced different ids")
	}
	if RunID(k1) == RunID(k3) {
		t.Error("different seeds share an id")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
