package main

import (
	"bytes"
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
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/core"
	"fssim/internal/experiments"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/server"
)

// serve-warm: an in-process fssimd over a warm PLT directory, in front of a
// closed loop of serveClients clients. Setup fills the directory with one
// snapshot per sweep key; every timed pass restarts the server over it,
// replays the seeded sweep (each key serveRepeats times: one pltstore replay,
// then memo hits) and drains.
const (
	serveScale   = 0.1
	serveRepeats = 10
	serveClients = 2
	// servePass is about how long one timed pass (restart, requests, drain)
	// takes on a 2-core Xeon host; see runConfig.passes.
	servePass = 100 * time.Millisecond
)

var (
	serveL2s        = []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
	serveStrategies = []string{"statistical", "best-match"}
)

// serveKey is one point of the accelerated sweep.
type serveKey struct {
	bench    string
	l2       int
	strategy string // "" = a full-system reference run
}

func (k serveKey) request(seed int64) server.RunRequest {
	q := server.RunRequest{Benchmark: k.bench, Mode: "full", L2: k.l2, Scale: serveScale, Seed: seed}
	if k.strategy != "" {
		q.Mode, q.Strategy = "accel", k.strategy
	}
	return q
}

func sweepKeys() []serveKey {
	var keys []serveKey
	for _, b := range osBenches {
		for _, l2 := range serveL2s {
			for _, s := range serveStrategies {
				keys = append(keys, serveKey{b, l2, s})
			}
		}
	}
	return keys
}

// rig is one running server on a loopback listener.
type rig struct {
	srv    *server.Server
	hs     *http.Server
	client *server.Client
	served chan error
}

func startRig(warmDir string, workers int) (*rig, error) {
	srv := server.New(server.Config{WarmDir: warmDir, Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		client: server.NewClient("http://" + ln.Addr().String()), served: make(chan error, 1)}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop drains the server, returning the drain time, then closes the listener
// and waits for the serving goroutine.
func (r *rig) stop() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var derr error
	d := timed(func() { derr = r.srv.Drain(ctx) })
	serr := r.hs.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return d, errors.Join(derr, serr)
}

// reply is one completed request.
type reply struct {
	ms    float64
	cache string // the X-Fssim-Cache header: miss, coalesced or hit
	body  []byte
	err   error
}

// closedLoop sends keys in order from serveClients clients, each sending its
// next request when the previous one completes.
func (r *rig) closedLoop(keys []serveKey, seed int64) []reply {
	out := make([]reply, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				start := time.Now()
				res, err := r.client.Run(context.Background(), keys[i].request(seed))
				out[i] = reply{ms: float64(time.Since(start).Nanoseconds()) / 1e6, err: err}
				if err == nil {
					out[i].cache, out[i].body = res.Cache, res.Body
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// serveSetup fills dir with the sweep's snapshots and returns every response
// body: the accelerated sweep keys and their full-system references. It sends
// one request at a time and collects garbage after each, so the setup's
// memory high-water mark, which peak_rss_mb sees, is the server's retained
// results plus one run, not an accident of when the collector ran.
func serveSetup(dir string, seed int64, rep *report) (map[serveKey][]byte, error) {
	keys := sweepKeys()
	for _, b := range osBenches {
		for _, l2 := range serveL2s {
			keys = append(keys, serveKey{bench: b, l2: l2})
		}
	}
	r, err := startRig(dir, 1)
	if err != nil {
		return nil, err
	}
	bodies := make(map[serveKey][]byte, len(keys))
	for _, k := range keys {
		res, err := r.client.Run(context.Background(), k.request(seed))
		rep.op(err)
		if err != nil {
			_, _ = r.stop()
			return nil, fmt.Errorf("setup %v: %w", k, err)
		}
		bodies[k] = res.Body
		runtime.GC()
	}
	_, err = r.stop()
	rep.op(err)
	return bodies, err
}

// positiveSeed maps the command-line seed onto the server's seed range.
func positiveSeed(s int64) int64 {
	if s >= 1 {
		return s
	}
	return 1 - s
}

func runServe(cfg runConfig, rep *report) error {
	seed := positiveSeed(cfg.seed)
	var bodies map[serveKey][]byte
	var setupTimes []float64
	var dir string
	for i := 0; i < setupReps; i++ {
		d := filepath.Join(cfg.workDir, fmt.Sprintf("warm-%d", i))
		var got map[serveKey][]byte
		var err error
		setupTimes = append(setupTimes, timed(func() { got, err = serveSetup(d, seed, rep) }).Seconds())
		if err != nil {
			return err
		}
		// The setup server's memo holds every simulated machine; return it to
		// the OS so the next repeat and the timed phase start from the same
		// heap.
		debug.FreeOSMemory()
		if bodies == nil {
			bodies, dir = got, d
			continue
		}
		for k, b := range got {
			rep.check(bytes.Equal(b, bodies[k]), "%v: setup repeat %d body differs", k, i)
		}
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}

	// Accuracy and instruction counts of the served results.
	keys := sweepKeys()
	resp := func(k serveKey) (server.RunResponse, error) {
		var rr server.RunResponse
		err := json.Unmarshal(bodies[k], &rr)
		return rr, err
	}
	insts := map[serveKey]uint64{}
	var errSum, covSum float64
	for _, k := range keys {
		a, err := resp(k)
		if err != nil {
			return err
		}
		f, err := resp(serveKey{bench: k.bench, l2: k.l2})
		if err != nil {
			return err
		}
		insts[k] = a.Insts
		errSum += 100 * math.Abs(float64(a.Cycles)-float64(f.Cycles)) / float64(f.Cycles)
		covSum += 100 * a.Coverage
	}

	order := make([]serveKey, 0, len(keys)*serveRepeats)
	for i := 0; i < serveRepeats; i++ {
		order = append(order, keys...)
	}
	order = shuffled(order, cfg.rng(2))
	var passInsts uint64
	for _, k := range order {
		passInsts += insts[k]
	}

	var (
		restarts, drains, warmHits, saves []float64
		passCPU, tracedPassCPU, passWalls []float64
		tracedAll, hits, replays          []float64
		coalesced                         int
	)
	for p := 0; p < cfg.passes(servePass); p++ {
		traced := cfg.trace && p%2 == 1
		var r *rig
		var replies []reply
		var err error
		var restart time.Duration
		cpu, wall := cpuTimed(func() {
			restart = timed(func() { r, err = startRig(dir, serveClients) })
			if err == nil {
				replies = r.closedLoop(order, seed)
			}
		})
		if err != nil {
			return err
		}
		st := r.srv.Scheduler().Stats()
		drain, stopErr := r.stop()
		debug.FreeOSMemory() // a restarted server starts from a fresh heap
		rep.op(stopErr)
		saved := r.srv.Scheduler().Stats().WarmSaves
		rep.check(st.WarmHits == int64(len(keys)) && st.WarmMisses == 0 && st.WarmInvalid == 0,
			"pass %d: %d warm replays (%d misses, %d invalid), want %d", p, st.WarmHits, st.WarmMisses, st.WarmInvalid, len(keys))
		rep.check(st.PLTLearned == 0, "pass %d: %d PLT instances learned, want 0 (replays re-simulated)", p, st.PLTLearned)

		for i, rp := range replies {
			err := rp.err
			if err == nil && !bytes.Equal(rp.body, bodies[order[i]]) {
				err = fmt.Errorf("pass %d: %v: body differs from setup", p, order[i])
			}
			rep.op(err)
			if traced {
				tracedAll = append(tracedAll, rp.ms)
				switch rp.cache {
				case "hit":
					hits = append(hits, rp.ms)
				case "miss":
					replays = append(replays, rp.ms)
				case "coalesced":
					coalesced++
				}
			}
		}
		if traced {
			tracedPassCPU = append(tracedPassCPU, cpu.Seconds())
		} else {
			passCPU = append(passCPU, cpu.Seconds())
			passWalls = append(passWalls, wall.Seconds())
		}
		restarts = append(restarts, ms(restart))
		drains = append(drains, ms(drain))
		warmHits = append(warmHits, float64(st.WarmHits))
		saves = append(saves, float64(saved))
	}

	n := float64(len(keys))
	if !cfg.trace {
		rep.set("ns_per_inst", median(passCPU)*1e9/float64(passInsts))
		rep.set("cycle_err_pct", errSum/n)
		rep.set("coverage_pct", covSum/n)
		rep.set("setup_s", median(setupTimes))
		return nil
	}

	zeroFill(rep, perLayer)
	p99, pct, ok := tail(tracedAll, 10)
	if !ok {
		return fmt.Errorf("only %d traced requests, too few for a tail percentile", len(tracedAll))
	}
	rep.set("server.req_p50_ms", median(tracedAll))
	rep.set("server.req_p99_ms", p99)
	rep.set("server.req_tail_pct", pct)
	rep.set("server.hit_ms", median(hits))
	rep.set("server.replay_ms", median(replays))
	rep.set("server.coalesced_frac", float64(coalesced)/float64(len(tracedAll)))
	rep.set("server.restart_ms", median(restarts))
	rep.set("server.drain_ms", median(drains))
	rep.set("experiments.warm_hits_per_pass", median(warmHits))
	rep.set("pltstore.saves_per_pass", median(saves))
	rep.set("server.req_per_s", float64(len(order))/median(passWalls))
	rep.set("bench.trace_overhead", median(tracedPassCPU)/median(passCPU))
	return serveProbes(rep, dir, filepath.Join(cfg.workDir, "probe"), seed)
}

// serveProbes times the serving layers' entry points on serve-warm's
// snapshots: pltstore Load, Save (into a separate directory) and Recover, and
// Scheduler.Lookup on a memo hit.
func serveProbes(rep *report, dir, probeDir string, seed int64) error {
	store := pltstore.Open(dir)
	index, err := store.Index()
	if err != nil {
		return err
	}
	if len(index) != len(sweepKeys()) {
		return fmt.Errorf("warm directory holds %d snapshots, want %d", len(index), len(sweepKeys()))
	}
	out := pltstore.Open(probeDir)
	var loads, saves []float64
	for r := 0; r < 3; r++ {
		for _, e := range index {
			h, err := pltstore.ParseHash(e.LearnHash)
			if err != nil {
				return err
			}
			var snap *pltstore.Snapshot
			loads = append(loads, ms(timed(func() { snap, err = store.Load(e.Benchmark, h) })))
			if err != nil {
				return err
			}
			saves = append(saves, ms(timed(func() { err = out.Save(snap) })))
			if err != nil {
				return err
			}
		}
	}
	rep.set("pltstore.load_ms", median(loads))
	rep.set("pltstore.save_ms", median(saves))

	var recovers []float64
	for r := 0; r < 10; r++ {
		var rerr error
		recovers = append(recovers, ms(timed(func() { _, rerr = pltstore.Open(dir).Recover() })))
		if rerr != nil {
			return rerr
		}
	}
	rep.set("pltstore.recover_ms", median(recovers))

	sched := experiments.NewScheduler(experiments.Config{WarmDir: dir, Scale: serveScale, Seed: seed, Parallelism: 1})
	k := sweepKeys()[0]
	key := experiments.RunSpec{Bench: k.bench, Mode: machine.Accelerated, L2: k.l2, Scale: serveScale,
		Seed: seed, Strategy: core.Statistical, Watchdog: true}.Key()
	ctx := context.Background()
	if _, _, err := sched.Lookup(ctx, key); err != nil {
		return err
	}
	const lookups = 10000
	var us []float64
	for r := 0; r < probeReps; r++ {
		var lerr error
		d := timed(func() {
			for i := 0; i < lookups && lerr == nil; i++ {
				_, _, lerr = sched.Lookup(ctx, key)
			}
		})
		if lerr != nil {
			return lerr
		}
		us = append(us, float64(d.Nanoseconds())/1e3/lookups)
	}
	rep.set("experiments.lookup_hit_us", median(us))
	if st := sched.Stats(); st.WarmHits != 1 || st.PLTLearned != 0 {
		return fmt.Errorf("lookup probe: %d warm replays and %d instances learned, want 1 and 0", st.WarmHits, st.PLTLearned)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
