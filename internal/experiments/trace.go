package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"fssim/internal/trace"
)

// TracedRun pairs a simulation's cache key with its recorder. Err is nil for
// completed runs; for aborted runs (AbortedTracedRuns) it is the failure that
// ended the run, and Rec holds the partial trace up to the abort point.
type TracedRun struct {
	Key RunKey
	Rec *trace.Recorder
	Err error
}

// TracedRuns returns every traced simulation the scheduler has executed,
// sorted by key string. It waits for in-flight runs to finish (failed and
// untraced runs are omitted), so the listing — and everything exported from
// it — is a pure function of the run set, independent of parallelism.
func (s *Scheduler) TracedRuns() []TracedRun {
	return s.TracedRunsCtx(context.Background())
}

// TracedRunsCtx is TracedRuns bounded by ctx: completed runs are always
// listed, while in-flight runs are waited on only until the deadline — runs
// still executing when ctx expires are omitted rather than blocking a drain
// forever. With an unexpired ctx the listing is identical to TracedRuns.
func (s *Scheduler) TracedRunsCtx(ctx context.Context) []TracedRun {
	entries := s.entries()

	out := make([]TracedRun, 0, len(entries))
	collect := func(k RunKey, e *runEntry) {
		if e.err == nil && e.out.rec != nil {
			out = append(out, TracedRun{Key: k, Rec: e.out.rec})
		}
	}
	var pending []RunKey
	for k, e := range entries {
		select {
		case <-e.done:
			collect(k, e)
		default:
			pending = append(pending, k)
		}
	}
	for _, k := range pending {
		e := entries[k]
		select {
		case <-e.done:
			collect(k, e)
		case <-ctx.Done():
			sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
			return out
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// AbortedTracedRuns returns the recorders salvaged from failed or canceled
// traced runs, sorted by key string. These partial traces are what an
// interrupted suite (SIGINT) or a draining server still flushes: the spans
// recorded up to the abort point remain loadable and diagnosable even though
// the run produced no result.
func (s *Scheduler) AbortedTracedRuns() []TracedRun {
	s.mu.Lock()
	out := make([]TracedRun, len(s.aborted))
	copy(out, s.aborted)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// abortedLabel marks aborted runs' sections in the exports so partial traces
// are never mistaken for completed ones.
func abortedLabel(tr TracedRun) string { return tr.Key.String() + " !aborted" }

// WriteChromeTrace exports every traced run as one Chrome trace-event JSON
// document: one process (pid) per simulation, one thread (tid) per OS
// service. Aborted runs' partial traces follow the completed ones, labeled
// "!aborted". The file loads directly in Perfetto or chrome://tracing.
func (s *Scheduler) WriteChromeTrace(w io.Writer) error {
	return s.WriteChromeTraceCtx(context.Background(), w)
}

// WriteChromeTraceCtx is WriteChromeTrace bounded by ctx: runs still
// executing at the deadline are omitted instead of blocking the export.
func (s *Scheduler) WriteChromeTraceCtx(ctx context.Context, w io.Writer) error {
	x := trace.NewChromeExporter(w)
	for _, tr := range s.TracedRunsCtx(ctx) {
		if err := x.AddProcess(tr.Key.String(), tr.Rec); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if err := x.AddProcess(abortedLabel(tr), tr.Rec); err != nil {
			return err
		}
	}
	return x.Close()
}

// WriteJSONLTrace exports every traced run's spans and instants as compact
// JSON lines tagged with the run key (aborted runs tagged "!aborted").
func (s *Scheduler) WriteJSONLTrace(w io.Writer) error {
	return s.WriteJSONLTraceCtx(context.Background(), w)
}

// WriteJSONLTraceCtx is WriteJSONLTrace bounded by ctx (in-flight runs at
// the deadline are omitted).
func (s *Scheduler) WriteJSONLTraceCtx(ctx context.Context, w io.Writer) error {
	for _, tr := range s.TracedRunsCtx(ctx) {
		if err := trace.WriteJSONL(w, tr.Key.String(), tr.Rec); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if err := trace.WriteJSONL(w, abortedLabel(tr), tr.Rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteRunMetrics writes each traced run's metrics registry as a plaintext
// /metrics-style dump, one "# run <key>" section per simulation. The output
// is deterministic: sections sort by key and each snapshot renders
// name-sorted (simulated quantities only — host timings live in
// WriteHarnessMetrics).
func (s *Scheduler) WriteRunMetrics(w io.Writer) error {
	return s.WriteRunMetricsCtx(context.Background(), w)
}

// WriteRunMetricsCtx is WriteRunMetrics bounded by ctx (in-flight runs at
// the deadline are omitted).
func (s *Scheduler) WriteRunMetricsCtx(ctx context.Context, w io.Writer) error {
	for _, tr := range s.TracedRunsCtx(ctx) {
		if _, err := fmt.Fprintf(w, "# run %s\n", tr.Key); err != nil {
			return err
		}
		if err := tr.Rec.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if _, err := fmt.Fprintf(w, "# run %s (aborted: %v)\n", tr.Key, tr.Err); err != nil {
			return err
		}
		if err := tr.Rec.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteHarnessMetrics writes the scheduler's own cache and worker-pool
// counters. These are host- and parallelism-dependent (like the "harness:"
// notes StableRender excludes), so they are kept out of WriteRunMetrics and
// the deterministic trace comparisons.
func (s *Scheduler) WriteHarnessMetrics(w io.Writer) error {
	st := s.Stats()
	hitRate := 0.0
	if st.Hits+st.Misses > 0 {
		hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	_, err := fmt.Fprintf(w,
		"# harness (host-dependent, excluded from deterministic comparisons)\n"+
			"sched.distinct %d\nsched.hits %d\nsched.misses %d\n"+
			"sched.hit_rate %.3f\nsched.failures %d\nsched.retries %d\n"+
			"sched.sim_wall_seconds %.3f\nsched.parallelism %d\n",
		st.Distinct, st.Hits, st.Misses, hitRate, st.Failures, st.Retries,
		st.SimWall.Seconds(), s.Parallelism())
	if err != nil || s.warm == nil {
		return err
	}
	// Warm-start counters appear only when a store is configured, so existing
	// metrics consumers see an unchanged document otherwise. plt.learned is
	// the learning performed by runs this process simulated: a fully
	// warm-started process reports 0.
	_, err = fmt.Fprintf(w,
		"plt.warm_hits %d\nplt.warm_misses %d\nplt.warm_invalid %d\n"+
			"plt.warm_saves %d\nplt.learned %d\n"+
			"plt.recovered.orphans %d\nplt.recovered.quarantined %d\n"+
			"transfer.hits %d\ntransfer.rejected %d\n",
		st.WarmHits, st.WarmMisses, st.WarmInvalid, st.WarmSaves, st.PLTLearned,
		st.WarmRecoveredOrphans, st.WarmRecoveredQuarantined,
		st.TransferHits, st.TransferRejected)
	return err
}
