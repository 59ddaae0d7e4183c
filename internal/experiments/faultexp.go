package experiments

import (
	"fmt"

	"fssim/internal/core"
	"fssim/internal/faults"
	"fssim/internal/machine"
)

// The faults experiment extends the paper's Figure 11 study to a perturbed
// platform: a deterministic fault plan (disk latency spikes, IRQ storms,
// unsolicited network traffic, loss windows, scheduler jitter and cache
// flushes) is injected into both the full-system truth and every accelerated
// run, and the four re-learning strategies are scored on how well they track
// the shifted service behavior. A fifth variant arms the divergence watchdog
// on top of Best-Match — the strategy with no re-learning trigger of its own
// — to show the guardrail recovering accuracy that strategy otherwise loses.

// faultsPlan is the preset injected by the faults experiment.
const faultsPlan = "storm"

// faultsBenches are the OS-intensive workloads the experiment perturbs: one
// disk-heavy, one fork/exec-heavy, one network-heavy.
func faultsBenches() []string { return []string{"ab-rand", "find-od", "iperf"} }

// faultsVariant is one scored accelerated configuration.
type faultsVariant struct {
	label    string
	strategy core.Strategy
	watchdog bool
}

func faultsVariants() []faultsVariant {
	vs := make([]faultsVariant, 0, 5)
	for _, strat := range core.Strategies() {
		vs = append(vs, faultsVariant{label: strat.String(), strategy: strat})
	}
	vs = append(vs, faultsVariant{label: "BestMatch+guard", strategy: core.BestMatch, watchdog: true})
	return vs
}

// faultsKey builds the cache key for one variant's faulted accelerated run.
func faultsKey(cfg Config, name string, v faultsVariant) RunKey {
	k := cfg.accelKey(name, v.strategy, 0).withFaults(faultsPlan)
	k.Watchdog = v.watchdog
	return k
}

func faultsExpNeeds(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range faultsBenches() {
		keys = append(keys, cfg.benchKey(name, machine.FullSystem, 0).withFaults(faultsPlan))
		for _, v := range faultsVariants() {
			keys = append(keys, faultsKey(cfg, name, v))
		}
	}
	return keys
}

// FaultsExp runs the robustness study: per benchmark and variant, the
// absolute execution-time error against the faulted full-system truth, the
// prediction coverage, and how often the learners re-learned or (for the
// guarded variant) degraded back to detailed simulation.
func FaultsExp(cfg Config) (*Result, error) {
	spec, err := faults.Named(faultsPlan)
	if err != nil {
		return nil, err
	}
	plan := faults.NewPlan(cfg.Seed, spec.Scaled(cfg.Scale))

	t := NewTable("benchmark", "variant", "coverage", "abs error", "relearns", "degrades")
	type agg struct {
		cov, err float64
		n        int
	}
	aggs := make(map[string]*agg)
	var degradedServices int
	for _, name := range faultsBenches() {
		full, err := getKey(cfg, cfg.benchKey(name, machine.FullSystem, 0).withFaults(faultsPlan))
		if err != nil {
			return nil, err
		}
		for _, v := range faultsVariants() {
			out, err := getKey(cfg, faultsKey(cfg, name, v))
			if err != nil {
				return nil, err
			}
			sum := out.acc.Summary()
			e := absErr(float64(out.res.Stats.Cycles), float64(full.res.Stats.Cycles))
			a := aggs[v.label]
			if a == nil {
				a = &agg{}
				aggs[v.label] = a
			}
			a.cov += sum.Coverage()
			a.err += e
			a.n++
			t.AddRowf(name, v.label, pct(sum.Coverage()), pct(e),
				fmt.Sprintf("%d", sum.Relearns), fmt.Sprintf("%d", sum.Degrades))
			if v.watchdog {
				degradedServices += out.acc.Health().Degraded
			}
		}
	}
	for _, v := range faultsVariants() {
		a := aggs[v.label]
		if a == nil || a.n == 0 {
			continue
		}
		t.AddRowf("average", v.label, pct(a.cov/float64(a.n)), pct(a.err/float64(a.n)), "", "")
	}
	res := &Result{Table: t}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fault %s, seeded by base seed %d", plan, cfg.Seed),
		fmt.Sprintf("watchdog (BestMatch+guard): threshold %.0f%% over the moving window; %d service(s) still degraded at run end",
			100*core.DefaultWatchdogThreshold, degradedServices))
	return res, nil
}
