package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricSpec declares one reported metric: its name and unit. The tables
// below are the program's single list of metrics; BENCHMARK.json at the
// repository root must declare the same names, units and directions (a test checks).
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run (--trace 0) reports on every
// workload. Each is defined for every workload and never zero; see README.md.
var endToEnd = []metricSpec{
	{"ns_per_inst", "ns", "lower"},
	{"cycle_err_pct", "%", "lower"},
	{"coverage_pct", "%", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run (--trace 1) reports. A layer that a
// workload never calls reports 0 there.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"machine.os_detailed.ns_per_inst", "ns", "lower"},
		{"machine.os_detailed.share", "fraction", "lower"},
		{"machine.app_detailed.ns_per_inst", "ns", "lower"},
		{"machine.app_detailed.share", "fraction", "lower"},
		{"machine.os_emulated.ns_per_inst", "ns", "lower"},
		{"machine.os_emulated.share", "fraction", "lower"},
		{"machine.other.share", "fraction", "lower"},
		{"core.learner.ns_per_interval", "ns", "lower"},
		{"core.learner.share", "fraction", "lower"},
		{"core.detailed_intervals", "count", "lower"},
		{"core.emulated_intervals", "count", "higher"},
		{"core.clusters", "count", "lower"},
		{"core.relearns", "count", "lower"},
		{"core.outliers", "count", "lower"},
		{"core.degrades", "count", "lower"},
		{"cache.access_ns.resident", "ns", "lower"},
		{"cache.access_ns.stream", "ns", "lower"},
		{"memsys.data_ns", "ns", "lower"},
		{"cpu.ooo_exec_ns", "ns", "lower"},
		{"cache.l1i.accesses_per_kinst", "count", "lower"},
		{"cache.l1d.accesses_per_kinst", "count", "lower"},
		{"cache.l2.accesses_per_kinst", "count", "lower"},
		{"cache.l1i.miss_rate", "fraction", "lower"},
		{"cache.l1d.miss_rate", "fraction", "lower"},
		{"cache.l2.miss_rate", "fraction", "lower"},
		{"memsys.dram_per_kinst", "count", "lower"},
		{"cpu.mispredict_rate", "fraction", "lower"},
		{"kernel.ctx_switches", "count", "lower"},
		{"kernel.ticks", "count", "lower"},
		{"machine.intervals", "count", "lower"},
		{"sim.os_inst_frac", "fraction", "lower"},
	}
	for _, b := range append(append([]string{}, osBenches...), specBenches...) {
		m = append(m,
			metricSpec{"workload." + b + ".wall_s", "s", "lower"},
			metricSpec{"workload." + b + ".cycle_err_pct", "%", "lower"})
	}
	return append(m, []metricSpec{
		{"workload.wall_speedup", "ratio", "higher"},
		{"server.hit_ms", "ms", "lower"},
		{"server.replay_ms", "ms", "lower"},
		{"server.req_p50_ms", "ms", "lower"},
		{"server.req_p99_ms", "ms", "lower"},
		{"server.req_tail_pct", "%", "higher"},
		{"server.restart_ms", "ms", "lower"},
		{"server.drain_ms", "ms", "lower"},
		{"server.coalesced_frac", "fraction", "higher"},
		{"server.req_per_s", "1/s", "higher"},
		{"experiments.lookup_hit_us", "us", "lower"},
		{"experiments.warm_hits_per_pass", "count", "higher"},
		{"pltstore.load_ms", "ms", "lower"},
		{"pltstore.save_ms", "ms", "lower"},
		{"pltstore.recover_ms", "ms", "lower"},
		{"pltstore.saves_per_pass", "count", "lower"},
		{"bench.trace_overhead", "ratio", "lower"},
	}...)
}()

// namePattern is the metric-name rule of BENCHMARK.json: a letter or
// digit, then letters, digits, '_', '.' and '-', at most 64 in all.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return namePattern.MatchString(s) }

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// finish checks that vals holds exactly the metrics of specs, each with a
// valid name and a finite value, and returns them in the result-line shape.
func finish(specs []metricSpec, vals metricSet) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		if !validName(s.name) {
			return nil, fmt.Errorf("invalid metric name %q", s.name)
		}
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// median returns the median of xs (0 for none), averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail latency may be reported at, highest
// first. The ladder stops at p99: that is the tail the benchmark names.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that leaves at least
// minBeyond samples strictly beyond it, and its nearest-rank value. With too
// few samples for even the median to qualify it returns ok=false.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return s[rank-1], p, true
		}
	}
	return 0, 0, false
}
