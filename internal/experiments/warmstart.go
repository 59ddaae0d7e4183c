package experiments

import (
	"bytes"
	"fmt"

	"fssim/internal/core"
	"fssim/internal/pltstore"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// The warmstart experiment measures what PLT persistence buys and pins the
// invariant it rests on. For each benchmark it takes one cold accelerated
// run (the learning session), pushes its learned state through the full
// pltstore byte codec, and then simulates the *same* configuration twice
// more: once continuing from the in-memory state and once from the state
// that round-tripped through snapshot bytes. The two continuation runs must
// be identical down to the machine statistics — a warm-started run's
// predictions come from the same clusters a continuous run would have used —
// while against the cold session the warm run skips the learning window:
// higher coverage, fewer detailed intervals, and (near) zero learning.
//
// Everything runs in memory, so the experiment is a pure function of the
// Config — byte-identical at any parallelism, with or without Config.WarmDir
// — while still exercising the exact Encode/Decode/Import path a process
// restart would.

// warmstartBenches keeps the experiment to two OS-intensive workloads; the
// invariant is per-run, so more benchmarks add cost, not information.
func warmstartBenches() []string {
	names := workload.OSIntensiveNames()
	if len(names) > 2 {
		names = names[:2]
	}
	return names
}

func warmstartNeeds(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range warmstartBenches() {
		keys = append(keys, cfg.accelKey(name, core.Statistical, 0))
	}
	return keys
}

// WarmstartExp runs the persistence study: cold vs warm coverage, the
// detailed-interval work a warm start avoids, the learning it skips, and the
// cluster-parity invariant between a continuous and a snapshot-restored run.
func WarmstartExp(cfg Config) (*Result, error) {
	t := NewTable("benchmark", "cov cold", "cov warm", "detailed cold", "detailed warm",
		"learned warm", "clusters", "parity")
	var snapBytes int
	var detCold, detWarm uint64
	for _, name := range warmstartBenches() {
		key := cfg.accelKey(name, core.Statistical, 0)

		// Session 1 (cold): the shared memoized accelerated run; its
		// accelerator holds the learned state a restart would persist.
		cold, acc, err := accelRun(cfg, name, core.Statistical, 0)
		if err != nil {
			return nil, err
		}
		coldSum := acc.Summary()
		state := acc.Export()

		// Persist through the real codec: state -> snapshot bytes -> state.
		snap := key.identity().Snapshot(cold.Stats, state, nil)
		// The snapshot stays in memory and never donates, so it carries no
		// sweep trailer.
		snap.Family, snap.Coords = 0, transfer.Coords{}
		data := pltstore.Encode(snap)
		snapBytes += len(data)
		restored, err := pltstore.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("warmstart: snapshot round trip: %w", err)
		}
		if !bytes.Equal(pltstore.Encode(restored), data) {
			return nil, fmt.Errorf("warmstart: %s snapshot re-encode not byte-identical", name)
		}

		// Session 2, both ways: continuing from the in-memory state, and
		// restoring from the snapshot bytes. core's prediction-parity test
		// proves Import(Export(a)) behaves exactly like a itself, so the
		// imported continuation stands in for the continuous run without
		// mutating the memo cache's shared accelerator.
		contAcc := core.NewAccelerator(state.Params)
		if err := contAcc.Import(state); err != nil {
			return nil, fmt.Errorf("warmstart: %s: import of exported state: %w", name, err)
		}
		warmAcc := core.NewAccelerator(restored.State.Params)
		if err := warmAcc.Import(restored.State); err != nil {
			return nil, fmt.Errorf("warmstart: %s: import of decoded state: %w", name, err)
		}
		opts, err := key.options(0)
		if err != nil {
			return nil, err
		}
		opts.Cancel = cfg.context().Done()
		contOpts, warmOpts := opts, opts
		contOpts.Sink = contAcc
		warmOpts.Sink = warmAcc
		contRes, err := workload.Run(name, contOpts)
		if err != nil {
			return nil, fmt.Errorf("warmstart: %s continuous rerun: %w", name, err)
		}
		warmRes, err := workload.Run(name, warmOpts)
		if err != nil {
			return nil, fmt.Errorf("warmstart: %s warm rerun: %w", name, err)
		}

		parity := "ok"
		if contRes.Stats != warmRes.Stats || contAcc.Summary() != warmAcc.Summary() {
			parity = "DIVERGED"
		}
		warmSum := warmAcc.Summary()
		dc := cold.Stats.Intervals - cold.Stats.Emulated
		dw := warmRes.Stats.Intervals - warmRes.Stats.Emulated
		detCold += dc
		detWarm += dw
		t.AddRowf(name,
			pct(cold.Stats.Coverage()), pct(warmRes.Stats.Coverage()),
			fmt.Sprintf("%d", dc), fmt.Sprintf("%d", dw),
			fmt.Sprintf("%d", warmSum.Learned-coldSum.Learned),
			fmt.Sprintf("%d", warmSum.Clusters), parity)
	}
	res := &Result{Table: t}
	res.Notes = append(res.Notes,
		"parity: a snapshot-restored run matches a continuous run's machine stats and counters exactly",
		fmt.Sprintf("warm start simulates %d detailed intervals where cold learning needed %d", detWarm, detCold),
		fmt.Sprintf("snapshots: %d bytes total (format v%d)", snapBytes, pltstore.FormatVersion))
	return res, nil
}
