package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/trace"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// runOutput is everything a memoized run yields. Full-system runs always
// carry a Profiler (characterization is free to record and lets Figs 3-6
// share the same cached simulations as the fig1/fig8 baselines); Accelerated
// runs carry their Accelerator. Both are immutable once the run completes,
// so concurrent readers need no locking.
type runOutput struct {
	res      workload.Result
	acc      *core.Accelerator
	prof     *core.Profiler
	smp      *sample.Sampler      // non-nil when the key carries a sampling spec
	rec      *trace.Recorder      // non-nil when Config.Trace is set
	transfer *transfer.Provenance // non-nil when the run imported donor priors
}

// outcome is the exported view of this output for serving front-ends.
func (o runOutput) outcome() Outcome {
	oc := Outcome{Result: o.res, Accel: o.acc, Trace: o.rec, Transfer: o.transfer}
	if o.smp != nil {
		rep := o.smp.Report()
		oc.Sample = &rep
	}
	return oc
}

// runEntry is one cache slot; done is closed when out/err/wall are final.
// creator records which experiment's request created the entry, so a runner
// re-reading a run its own prefetch started is not miscounted as a cache hit.
type runEntry struct {
	done    chan struct{}
	creator *expStats
	out     runOutput
	err     error
	wall    time.Duration
}

// SchedStats is the scheduler's aggregate view of work performed and saved.
type SchedStats struct {
	Distinct int           // distinct simulations currently memoized
	Hits     int64         // Get calls served from cache (or coalesced in-flight)
	Misses   int64         // Get calls that executed a new simulation
	Failures int64         // runs that exhausted their attempts and failed
	Retries  int64         // extra attempts after a failed first try
	SimWall  time.Duration // summed wall-clock of executed simulations

	// Warm-start counters (all zero unless Config.WarmDir is set).
	WarmHits    int64 // runs replayed from an on-disk PLT snapshot without simulating
	WarmMisses  int64 // eligible runs with no snapshot for their configuration
	WarmInvalid int64 // snapshots rejected (corrupt, stale hash, or mismatched identity)
	WarmSaves   int64 // snapshots written (per-run saves plus FlushWarm sweeps)
	// PLTLearned sums the learned-instance counters of accelerated runs this
	// process actually simulated; replayed runs contribute nothing, so a
	// fully warm process reports ~0.
	PLTLearned int64
	// Startup recovery sweep results (see pltstore.RecoveryReport): orphan
	// temp files deleted and corrupt/torn snapshots quarantined when the
	// warm store was opened.
	WarmRecoveredOrphans     int64
	WarmRecoveredQuarantined int64

	// Stratified-sampling counters (all zero unless sampled keys were run).
	SampledRuns        int64 // runs executed with an application-interval sampler
	SampleDetailed     int64 // app intervals simulated in detail across sampled runs
	SampleExtrapolated int64 // app intervals fast-forwarded across sampled runs

	// Cross-config transfer counters (all zero unless keys carried a
	// transfer directive).
	TransferHits     int64 // runs that imported rescaled donor priors
	TransferRejected int64 // transfer directives that fell back to a cold start
	//   (ineligible or missing donor, failed donor run, or invalid rescale)
}

// RunError describes one simulation's final failure: which run, how many
// attempts it was given, whether the last attempt hit the per-run timeout,
// and the underlying cause (a workload panic converted to an error, a
// machine abort, or a context cancellation).
type RunError struct {
	Key      RunKey
	Attempts int
	Timeout  bool
	Cause    error
}

func (e *RunError) Error() string {
	if e.Attempts == 0 {
		// The run never started: its suite (or serving) context was canceled
		// while it waited for a worker slot.
		return fmt.Sprintf("run %s canceled while queued: %v", e.Key, e.Cause)
	}
	what := "failed"
	if e.Timeout {
		what = "timed out"
	}
	return fmt.Sprintf("run %s %s after %d attempt(s): %v", e.Key, what, e.Attempts, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// Scheduler memoizes simulation runs keyed by RunKey and executes distinct
// runs on a bounded worker pool. Concurrent requests for the same key are
// coalesced singleflight-style: the first caller simulates, later callers
// block on the same entry. A Scheduler is safe for concurrent use.
type Scheduler struct {
	cfg   Config
	slots chan struct{}   // worker-pool semaphore; cap = parallelism
	warm  *pltstore.Store // nil unless Config.WarmDir is set

	mu      sync.Mutex
	runs    map[RunKey]*runEntry
	aborted []TracedRun // recorders salvaged from failed/canceled traced runs

	costsOnce sync.Once
	costs     ModeCosts

	hits     atomic.Int64
	misses   atomic.Int64
	failures atomic.Int64
	retries  atomic.Int64
	simWall  atomic.Int64 // nanoseconds

	warmHits    atomic.Int64
	warmMisses  atomic.Int64
	warmInvalid atomic.Int64
	warmSaves   atomic.Int64
	pltLearned  atomic.Int64
	recOrphans  atomic.Int64
	recQuar     atomic.Int64

	sampledRuns  atomic.Int64
	sampleDet    atomic.Int64
	sampleExtrap atomic.Int64

	transferHits     atomic.Int64
	transferRejected atomic.Int64

	// donors is the transfer donor set for "store" directives, frozen at
	// construction: every valid, cold-learned snapshot the warm directory
	// held when the scheduler was built. Freezing makes store-driven donor
	// resolution independent of scheduling order — snapshots saved *during*
	// this invocation never become donors within it, so tables stay
	// byte-identical at any -j.
	donors []*pltstore.Snapshot
}

// NewScheduler builds a scheduler for cfg; cfg is normalized first, so a
// zero Parallelism becomes GOMAXPROCS and a zero Scale the default 1.0.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.normalized()
	s := &Scheduler{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Parallelism),
		runs:  make(map[RunKey]*runEntry),
	}
	if cfg.WarmDir != "" {
		if cfg.warmFS != nil {
			s.warm = pltstore.OpenFS(cfg.WarmDir, cfg.warmFS)
		} else {
			s.warm = pltstore.Open(cfg.WarmDir)
		}
		// Startup recovery sweep: delete orphan temps from crashed writers and
		// quarantine torn/corrupt snapshots so a damaged store degrades to
		// counted cold starts, never to a wedged or lying warm start.
		// Best-effort — a sweep error leaves per-load verification as the
		// safety net.
		if rep, err := s.warm.Recover(); err == nil {
			s.recOrphans.Store(int64(rep.Orphans))
			s.recQuar.Store(int64(rep.Quarantined))
		}
		if cfg.Transfer {
			s.loadDonors()
		}
	}
	return s
}

// loadDonors freezes the store-driven transfer donor set: every snapshot in
// the warm directory that decodes and validates, in LoadAll's path order, so
// nearest-donor tie-breaking is deterministic.
func (s *Scheduler) loadDonors() {
	s.donors, _ = s.warm.LoadAll()
}

// entries copies the memo table, so callers can wait on entries without
// holding mu.
func (s *Scheduler) entries() map[RunKey]*runEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make(map[RunKey]*runEntry, len(s.runs))
	for k, e := range s.runs {
		entries[k] = e
	}
	return entries
}

// Parallelism returns the worker-pool width.
func (s *Scheduler) Parallelism() int { return cap(s.slots) }

// Stats returns a snapshot of cache and timing counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	return SchedStats{
		Distinct:    n,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Failures:    s.failures.Load(),
		Retries:     s.retries.Load(),
		SimWall:     time.Duration(s.simWall.Load()),
		WarmHits:    s.warmHits.Load(),
		WarmMisses:  s.warmMisses.Load(),
		WarmInvalid: s.warmInvalid.Load(),
		WarmSaves:   s.warmSaves.Load(),
		PLTLearned:  s.pltLearned.Load(),

		WarmRecoveredOrphans:     s.recOrphans.Load(),
		WarmRecoveredQuarantined: s.recQuar.Load(),

		SampledRuns:        s.sampledRuns.Load(),
		SampleDetailed:     s.sampleDet.Load(),
		SampleExtrapolated: s.sampleExtrap.Load(),

		TransferHits:     s.transferHits.Load(),
		TransferRejected: s.transferRejected.Load(),
	}
}

// Get runs (or returns the memoized result of) the simulation key describes.
func (s *Scheduler) Get(key RunKey) (workload.Result, error) {
	out, err := s.get(s.cfg.context(), key, nil)
	return out.res, err
}

// Prefetch starts the given runs in the background without waiting for them.
// Experiment runners declare their full run set up front so that independent
// simulations proceed concurrently while the runner consumes results in its
// (serial) presentation order.
func (s *Scheduler) Prefetch(keys ...RunKey) { s.prefetch(nil, keys...) }

// prefetch is Prefetch with per-experiment stat attribution: simulations the
// prefetch starts are credited to st, not miscounted later as cache hits.
func (s *Scheduler) prefetch(st *expStats, keys ...RunKey) {
	ctx := s.cfg.context()
	for _, key := range keys {
		key := key
		go func() { _, _ = s.get(ctx, key, st) }()
	}
}

// get is the memoizing core. st, when non-nil, receives per-experiment
// hit/miss attribution for the requesting runner's notes. Failed runs are
// evicted from the cache once their waiters are released, so one poisoned
// entry does not pin its error for the scheduler's remaining lifetime — a
// later Get retries from scratch.
func (s *Scheduler) get(ctx context.Context, key RunKey, st *expStats) (runOutput, error) {
	s.mu.Lock()
	e, ok := s.runs[key]
	if ok {
		s.mu.Unlock()
		s.hits.Add(1)
		if st != nil && e.creator != st {
			st.hits.Add(1)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return runOutput{}, ctx.Err()
		}
		return e.out, e.err
	}
	e = &runEntry{done: make(chan struct{}), creator: st}
	s.runs[key] = e
	s.mu.Unlock()
	s.misses.Add(1)
	if st != nil {
		st.misses.Add(1)
	}
	s.run(ctx, key, e, st)
	return e.out, e.err
}

// run executes the simulation behind a freshly created entry: it waits for a
// worker slot (a cancellation while queued resolves the entry with a
// *RunError wrapping the context error, without ever starting the run),
// executes, and publishes the result via finish.
func (s *Scheduler) run(ctx context.Context, key RunKey, e *runEntry, st *expStats) {
	// Donor resolution happens BEFORE this run occupies a worker slot: the
	// sibling-donor path runs (or joins) the donor simulation through the
	// ordinary memo cache, which itself needs a slot — resolving first both
	// orders every sweep so donors complete before their recipients and
	// keeps -j 1 deadlock-free.
	prior, prov := s.resolveTransfer(ctx, key, st)
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		e.err = &RunError{Key: key, Attempts: 0, Cause: ctx.Err()}
		s.finish(key, e, st)
		return
	}
	start := time.Now()
	e.out, e.err = s.execute(ctx, key, prior, prov)
	e.wall = time.Since(start)
	<-s.slots

	s.simWall.Add(int64(e.wall))
	if st != nil {
		st.simWall.Add(int64(e.wall))
	}
	s.finish(key, e, st)
}

// LookupStatus classifies how a Lookup request was satisfied — the value a
// serving front-end reports in its cache-status response header.
type LookupStatus int

const (
	// LookupMiss: this request started a fresh simulation.
	LookupMiss LookupStatus = iota
	// LookupCoalesced: the request joined an in-flight simulation for the
	// same key (singleflight dedup).
	LookupCoalesced
	// LookupHit: the result was already memoized.
	LookupHit
)

func (st LookupStatus) String() string {
	switch st {
	case LookupHit:
		return "hit"
	case LookupCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Outcome is the exported view of one memoized run, for serving front-ends.
type Outcome struct {
	Result workload.Result
	// Accel is the run's acceleration engine (nil unless Accelerated); its
	// Health feeds circuit-breaking degradation decisions.
	Accel *core.Accelerator
	// Sample is the estimator report of a sampled run (nil unless the key
	// carried a sampling spec): strata, detailed/extrapolated split, and the
	// 95% confidence half-width on the extrapolated cycles.
	Sample *sample.Report
	// Trace is the run's recorder (nil unless Config.Trace).
	Trace *trace.Recorder
	// Transfer is the provenance of the donor priors this run imported (nil
	// for cold runs and for transfer directives that were rejected).
	Transfer *transfer.Provenance
}

// Lookup resolves key through the memo cache on behalf of a long-lived
// serving front-end. Unlike Get, execution is detached from the caller: a
// fresh simulation runs under the scheduler's own lifetime context (bounded
// by the per-run Timeout), while ctx bounds only this caller's wait — a
// waiter that gives up (request deadline, client disconnect) leaves the
// shared simulation running for other coalesced clients to collect. The
// reported status tells the caller whether it started the run, joined an
// in-flight one, or was served from the cache.
func (s *Scheduler) Lookup(ctx context.Context, key RunKey) (Outcome, LookupStatus, error) {
	return s.LookupNotify(ctx, key, nil)
}

// LookupNotify is Lookup with a completion hook for the detached execution:
// when this call starts a fresh run (status LookupMiss), onDone is invoked
// exactly once with the run's final outcome, after the entry resolves —
// regardless of whether this caller's ctx expires first. Joined (coalesced or
// hit) lookups never invoke onDone: each distinct execution notifies only its
// creator, so a front-end feeding health signals (circuit breakers, run
// records) from the hook counts every run exactly once, even when all of its
// waiters abandoned it.
func (s *Scheduler) LookupNotify(ctx context.Context, key RunKey, onDone func(Outcome, error)) (Outcome, LookupStatus, error) {
	s.mu.Lock()
	e, ok := s.runs[key]
	if ok {
		s.mu.Unlock()
		s.hits.Add(1)
		status := LookupCoalesced
		select {
		case <-e.done:
			status = LookupHit
		default:
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return Outcome{}, status, ctx.Err()
		}
		return e.out.outcome(), status, e.err
	}
	e = &runEntry{done: make(chan struct{})}
	s.runs[key] = e
	s.mu.Unlock()
	s.misses.Add(1)
	go func() {
		s.run(s.cfg.context(), key, e, nil)
		if onDone != nil {
			onDone(e.out.outcome(), e.err)
		}
	}()
	select {
	case <-e.done:
	case <-ctx.Done():
		return Outcome{}, LookupMiss, ctx.Err()
	}
	return e.out.outcome(), LookupMiss, e.err
}

// TraceOf returns the recorder of the completed memoized run for key, if the
// run was traced and succeeded.
func (s *Scheduler) TraceOf(key RunKey) (*trace.Recorder, bool) {
	s.mu.Lock()
	e, ok := s.runs[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
	default:
		return nil, false
	}
	if e.err != nil || e.out.rec == nil {
		return nil, false
	}
	return e.out.rec, true
}

// maxAbortedTraces bounds the salvaged-recorder list: under a long failure
// storm a long-lived server would otherwise accumulate one full trace
// recorder per failed run without limit. The most recent failures are the
// diagnostically useful ones, so older salvaged traces are dropped first.
const maxAbortedTraces = 32

// finish publishes an entry's result and evicts it on failure. A failed (or
// canceled) traced run's recorder is salvaged into the aborted list (capped
// at maxAbortedTraces, oldest dropped) before the entry is dropped, so an
// interrupted suite still flushes usable partial traces on drain (see
// AbortedTracedRuns).
func (s *Scheduler) finish(key RunKey, e *runEntry, st *expStats) {
	close(e.done)
	if e.err == nil {
		return
	}
	s.failures.Add(1)
	if st != nil {
		st.failures.Add(1)
	}
	s.mu.Lock()
	if s.runs[key] == e {
		delete(s.runs, key)
	}
	if e.out.rec != nil {
		if len(s.aborted) >= maxAbortedTraces {
			n := copy(s.aborted, s.aborted[len(s.aborted)-maxAbortedTraces+1:])
			s.aborted = s.aborted[:n]
		}
		s.aborted = append(s.aborted, TracedRun{Key: key, Rec: e.out.rec, Err: e.err})
	}
	s.mu.Unlock()
}

// execute runs the simulation a key describes, retrying failed attempts (up
// to cfg.Retries extra tries) with fresh derived seeds. Context cancellation
// is terminal: a canceled suite does not burn retries.
//
// When a warm store is configured, an eligible run first consults it: an
// exact-identity snapshot (same ReplayHash) replays the recorded result
// without simulating at all — simulations are deterministic, so the replayed
// result is byte-identical to what re-running would produce. Any other
// outcome (no snapshot, stale hash, corrupt file) is counted and falls
// through to a normal cold simulation, whose result is saved back.
func (s *Scheduler) execute(ctx context.Context, key RunKey, prior *core.AccelState, prov *transfer.Provenance) (runOutput, error) {
	if out, ok := s.warmReplay(key, prov); ok {
		return out, nil
	}
	var lastErr error
	var lastOut runOutput
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
		}
		out, err := s.executeOnce(ctx, key, attempt, prior, prov)
		if err == nil {
			if out.acc != nil {
				s.pltLearned.Add(out.acc.Summary().Learned)
			}
			if out.smp != nil {
				rep := out.smp.Report()
				s.sampledRuns.Add(1)
				s.sampleDet.Add(rep.Detailed)
				s.sampleExtrap.Add(rep.Extrapolated)
			}
			if s.warmEligible(key) && out.acc != nil {
				_ = s.warmSave(key, out) // best-effort: a failed write never fails the run
			}
			return out, nil
		}
		// Keep the failed attempt's partial output: its recorder holds the
		// trace up to the abort point, which the drain path salvages.
		lastOut = out
		lastErr = &RunError{
			Key:      key,
			Attempts: attempt + 1,
			Timeout:  isTimeout(ctx, err),
			Cause:    err,
		}
		if ctx.Err() != nil {
			break
		}
	}
	return lastOut, lastErr
}

// isTimeout reports whether err is a per-run deadline rather than a suite
// cancellation: the run was aborted but the surrounding context is live.
func isTimeout(ctx context.Context, err error) bool {
	return ctx.Err() == nil &&
		(errors.Is(err, machine.ErrCanceled) || errors.Is(err, context.DeadlineExceeded))
}

// executeOnce builds and runs one attempt of the simulation a key fully
// describes. A panic escaping the workload's own recovery (e.g. out of a
// Prepare hook) is converted to an error here, so a broken run can never
// take down the scheduler's worker or the whole suite.
func (s *Scheduler) executeOnce(ctx context.Context, key RunKey, attempt int, prior *core.AccelState, prov *transfer.Provenance) (out runOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run %s: panic: %v\n%s", key, r, debug.Stack())
		}
	}()
	opts, err := key.options(attempt)
	if err != nil {
		return out, err
	}
	if s.cfg.Trace {
		out.rec = trace.NewRecorder(trace.DefaultConfig())
		opts.Trace = out.rec
	}
	if s.cfg.Timeout > 0 || ctx.Done() != nil {
		runCtx := ctx
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		opts.Cancel = runCtx.Done()
	}
	switch key.Mode {
	case machine.FullSystem:
		out.prof = core.NewProfiler()
		opts.Observer = out.prof.Observer()
	case machine.Accelerated:
		out.acc = core.NewAccelerator(key.params())
		if prior != nil {
			// Warm-start the learners from the rescaled donor priors. Rescale
			// already validated the state and Import re-validates; a failure
			// here leaves the accelerator empty, so the run proceeds cold and
			// the rejection is counted — never a silent half-import.
			if ierr := out.acc.Import(prior); ierr == nil {
				out.transfer = prov
			} else {
				s.transferHits.Add(-1)
				s.transferRejected.Add(1)
			}
		}
		opts.Sink = out.acc
	}
	if key.Sample != "" {
		spec, serr := sample.ParseSpec(key.Sample)
		if serr != nil {
			return out, serr
		}
		// Seeded by the attempt's machine seed: sampling decisions are a pure
		// function of (key, attempt), like everything else about the run.
		out.smp = sample.New(spec, opts.Machine.Seed)
		opts.Sample = out.smp
	}
	res, err := workload.Run(key.Bench, opts)
	out.res = res
	return out, err
}

// --- cross-config transfer --------------------------------------------------

// resolveTransfer resolves a key's transfer directive into rescaled donor
// priors plus their provenance, or (nil, nil) for keys without a directive
// and for every rejection. Rejections — unparseable directive, wrong mode,
// no eligible donor, failed donor run, or an invalid rescale — are counted
// in TransferRejected and the run proceeds cold; a directive is never
// silently ignored and a bad donor is never silently imported.
//
// The "l2=<bytes>" form resolves the donor through the memo cache (the
// sibling run at that L2 in this invocation, simulated on demand), so sweep
// run-sets are automatically ordered donor-first. The "store" form resolves
// against the donor set frozen at construction from the warm directory.
func (s *Scheduler) resolveTransfer(ctx context.Context, key RunKey, st *expStats) (*core.AccelState, *transfer.Provenance) {
	if key.Transfer == "" {
		return nil, nil
	}
	reject := func() (*core.AccelState, *transfer.Provenance) {
		s.transferRejected.Add(1)
		return nil, nil
	}
	spec, err := transfer.ParseSpec(key.Transfer)
	if err != nil || key.Mode != machine.Accelerated {
		return reject()
	}
	recip := key.identity()
	coords := transfer.FromConfig(recip.Machine)
	var donor *pltstore.Snapshot
	if spec.Store {
		donor = pltstore.NearestDonor(s.donors, recip.Family(), coords)
	} else {
		donorKey := key.withTransfer("")
		donorKey.L2 = spec.L2
		donorKey = donorKey.Key()
		if out, err := s.get(ctx, donorKey, st); err == nil && out.acc != nil {
			donor = donorKey.identity().Snapshot(out.res.Stats, out.acc.Export(), nil)
		}
	}
	if donor == nil {
		return reject()
	}
	prior, prov, err := donor.TransferTo(coords, recip.Params)
	if err != nil {
		return reject()
	}
	s.transferHits.Add(1)
	return prior, prov
}

// TransferRecord pairs a completed run with its transfer provenance, for the
// CLIs' summary lines.
type TransferRecord struct {
	Key  RunKey
	Prov transfer.Provenance
}

// Transfers lists the completed runs that imported donor priors, sorted by
// key for deterministic output.
func (s *Scheduler) Transfers() []TransferRecord {
	entries := s.entries()
	var out []TransferRecord
	for k, e := range entries {
		select {
		case <-e.done:
		default:
			continue
		}
		if e.err == nil && e.out.transfer != nil {
			out = append(out, TransferRecord{Key: k, Prov: *e.out.transfer})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// --- warm-start store -------------------------------------------------------

// warmEligible: only Accelerated runs carry learned state worth persisting.
// Sampled runs are excluded: their statistics depend on the sampler's
// estimator, the snapshot identity does not encode the sampling spec, and a
// stats-only replay would drop the run's Report (the error-bar contract).
func (s *Scheduler) warmEligible(key RunKey) bool {
	return s.warm != nil && key.Mode == machine.Accelerated && key.Sample == ""
}

// warmReplay consults the warm store for an exact-identity snapshot of key.
// On a hit it reconstructs the run's output — recorded machine statistics
// plus an accelerator imported from the persisted learner state — without
// executing anything. Every non-hit is counted (miss or invalid) and returns
// ok=false: a stale or corrupt snapshot degrades to a cold start, never to a
// wrong result. Replayed runs carry no trace recorder (nothing executed to
// trace).
func (s *Scheduler) warmReplay(key RunKey, prov *transfer.Provenance) (runOutput, bool) {
	if !s.warmEligible(key) {
		return runOutput{}, false
	}
	id := key.identity()
	snap, err := s.warm.Load(key.Bench, id.LearnHash())
	if err != nil {
		if errors.Is(err, pltstore.ErrNotFound) {
			s.warmMisses.Add(1)
		} else {
			s.warmInvalid.Add(1)
		}
		return runOutput{}, false
	}
	if snap.ReplayHash != id.ReplayHash(prov) {
		// Compatible learned state, but not this exact run (different base
		// seed, or a transferred snapshot recorded under a different donor
		// than this invocation resolved): exact replay would be wrong, so
		// simulate cold.
		s.warmInvalid.Add(1)
		return runOutput{}, false
	}
	acc := core.NewAccelerator(snap.State.Params)
	if err := acc.Import(snap.State); err != nil {
		s.warmInvalid.Add(1)
		return runOutput{}, false
	}
	s.warmHits.Add(1)
	return runOutput{res: workload.Result{Stats: snap.Stats}, acc: acc, transfer: prov}, true
}

// warmSave persists one successful run's snapshot and counts it.
func (s *Scheduler) warmSave(key RunKey, out runOutput) error {
	if err := s.warm.Save(key.identity().Snapshot(out.res.Stats, out.acc.Export(), out.transfer)); err != nil {
		return err
	}
	s.warmSaves.Add(1)
	return nil
}

// FlushWarm sweeps every completed successful accelerated run into the warm
// store — the authoritative drain-time save (server.WriteArtifacts calls it),
// catching any run whose best-effort per-run save failed. It waits for
// in-flight runs to finish. A scheduler without a warm store is a no-op.
// The returned count is how many snapshots were written by this sweep.
func (s *Scheduler) FlushWarm() (int, error) {
	return s.FlushWarmCtx(context.Background())
}

// FlushWarmCtx is FlushWarm bounded by ctx: already-completed runs are saved
// first (each save independently atomic, so every snapshot written is whole
// progress that survives whatever happens next), then in-flight runs are
// waited on only until the deadline. Runs still in flight when ctx expires
// are skipped and reported in the error; everything saved before that stays
// saved.
func (s *Scheduler) FlushWarmCtx(ctx context.Context) (int, error) {
	if s.warm == nil {
		return 0, nil
	}
	entries := s.entries()
	saved := 0
	var errs []error
	save := func(key RunKey, e *runEntry) {
		if e.err != nil || e.out.acc == nil {
			return
		}
		if err := s.warmSave(key, e.out); err != nil {
			errs = append(errs, err)
			return
		}
		saved++
	}
	// Pass 1: everything already finished is saved unconditionally — a
	// near-expired deadline still flushes all completed work.
	var pending []RunKey
	for key, e := range entries {
		if !s.warmEligible(key) {
			continue
		}
		select {
		case <-e.done:
			save(key, e)
		default:
			pending = append(pending, key)
		}
	}
	// Pass 2: wait for in-flight runs, but only as long as ctx allows.
	for i, key := range pending {
		e := entries[key]
		select {
		case <-e.done:
			save(key, e)
		case <-ctx.Done():
			errs = append(errs, fmt.Errorf("flush deadline: %d in-flight run(s) skipped: %w",
				len(pending)-i, ctx.Err()))
			return saved, errors.Join(errs...)
		}
	}
	return saved, errors.Join(errs...)
}

// WarmDir returns the warm store's directory ("" when no store is configured).
func (s *Scheduler) WarmDir() string {
	if s.warm == nil {
		return ""
	}
	return s.warm.Dir()
}

// WarmStore exposes the scheduler's PLT snapshot store (nil when persistence
// is disabled) — serving front-ends index it for peers and gossip verified
// snapshots into it.
func (s *Scheduler) WarmStore() *pltstore.Store { return s.warm }

// WarmSnapshotPath returns the newest on-disk snapshot for bench, for
// serving front-ends that export learned state (GET /v1/plt/{benchmark}).
// ok is false when no store is configured or no snapshot exists.
func (s *Scheduler) WarmSnapshotPath(bench string) (string, bool) {
	if s.warm == nil {
		return "", false
	}
	paths, err := s.warm.List(bench)
	if err != nil || len(paths) == 0 {
		return "", false
	}
	// List sorts by name; pick the newest by modification time so the most
	// recently refreshed configuration wins when several coexist. Equal
	// timestamps (same-second saves on coarse filesystems) break to the
	// lexicographically smallest path, so the choice is deterministic rather
	// than an artifact of directory iteration order.
	best, bestAt := "", time.Time{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		if best == "" || fi.ModTime().After(bestAt) ||
			(fi.ModTime().Equal(bestAt) && p < best) {
			best, bestAt = p, fi.ModTime()
		}
	}
	return best, best != ""
}

// modeCosts returns the Table 1 host-cost measurement, pinned from the
// config when set, otherwise measured once per scheduler. Measurement drains
// the worker pool first so concurrent simulations cannot skew the timing.
func (s *Scheduler) modeCosts() ModeCosts {
	s.costsOnce.Do(func() {
		if s.cfg.ModeCosts != nil {
			s.costs = *s.cfg.ModeCosts
			return
		}
		for i := 0; i < cap(s.slots); i++ {
			s.slots <- struct{}{}
		}
		s.costs = measureModeCosts(3_000_000)
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
	})
	return s.costs
}

// --- per-experiment attribution --------------------------------------------

// expStats attributes scheduler activity to one experiment run for its
// "harness:" note: how many of its requests were fresh simulations versus
// cache hits, and how much simulation wall-clock its fresh runs cost.
type expStats struct {
	hits     atomic.Int64
	misses   atomic.Int64
	failures atomic.Int64
	simWall  atomic.Int64
}

func (st *expStats) note(wall time.Duration, parallelism int) string {
	h, m := st.hits.Load(), st.misses.Load()
	s := fmt.Sprintf("harness: %d runs (%d simulated, %d cache hits), sim %.1fs, wall %.1fs, parallelism %d",
		h+m, m, h, time.Duration(st.simWall.Load()).Seconds(), wall.Seconds(), parallelism)
	if f := st.failures.Load(); f > 0 {
		s += fmt.Sprintf(", %d failed", f)
	}
	return s
}

// --- runner-facing helpers --------------------------------------------------

// runBench returns the (memoized) result of one benchmark under the given
// machine mode and L2 size.
func runBench(cfg Config, name string, mode machine.SimMode, l2 int) (workload.Result, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.benchKey(name, mode, l2), cfg.stats)
	return out.res, err
}

// getKey resolves an explicit key through the config's scheduler — for
// runners (like the faults experiment) that build keys beyond the standard
// benchKey/accelKey variants.
func getKey(cfg Config, key RunKey) (runOutput, error) {
	return cfg.sched.get(cfg.context(), key, cfg.stats)
}

// accelRun returns the (memoized) result of one benchmark under the
// accelerated scheme with the given strategy, plus the accelerator that
// drove it, for coverage inspection.
func accelRun(cfg Config, name string, strat core.Strategy, l2 int) (workload.Result, *core.Accelerator, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.accelKey(name, strat, l2), cfg.stats)
	return out.res, out.acc, err
}

// profileRun returns the §3 characterization profiler of a full-system run
// of name. The underlying simulation is the same cache entry the baseline
// figures use: every full-system run records its profile as it executes.
func profileRun(cfg Config, name string) (*core.Profiler, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.benchKey(name, machine.FullSystem, 0), cfg.stats)
	return out.prof, err
}
