package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		value   float64
		ok      bool
		comment string
	}{
		{1000, 99, 990, true, "p99 at rank 990 leaves exactly 10 beyond"},
		{999, 95, 950, true, "p99 would leave 9 beyond"},
		{200, 95, 190, true, "p95 at rank 190 leaves 10 beyond"},
		{100, 90, 90, true, "p90 at rank 90 leaves 10 beyond"},
		{99, 75, 75, true, "p90 would leave 9 beyond"},
		{40, 75, 30, true, "p75 at rank 30 leaves 10 beyond"},
		{20, 50, 10, true, "p50 at rank 10 leaves 10 beyond"},
		{19, 0, 0, false, "even p50 would leave 9 beyond"},
		{0, 0, 0, false, "no samples"},
	} {
		v, p, ok := tail(seq(tc.n), 10)
		if v != tc.value || p != tc.pct || ok != tc.ok {
			t.Errorf("n=%d: got (%v, p%v, %v), want (%v, p%v, %v): %s",
				tc.n, v, p, ok, tc.value, tc.pct, tc.ok, tc.comment)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"ns_per_inst", "cache.l1i.miss_rate", "workload.find-od.wall_s", "0x", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".lead", "_lead", "-lead", "sp ace", "slash/name", "pct%", "ünï", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !validName(s.name) || seen[s.name] {
			t.Errorf("metric %q is invalid or declared twice", s.name)
		}
		seen[s.name] = true
	}
}

func TestFinishRejectsMissingUndeclaredAndNaN(t *testing.T) {
	specs := []metricSpec{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	if _, err := finish(specs, metricSet{"a": 1, "b": 2}); err != nil {
		t.Fatalf("complete set: %v", err)
	}
	for name, vals := range map[string]metricSet{
		"missing":    {"a": 1},
		"undeclared": {"a": 1, "b": 2, "c": 3},
		"nan":        {"a": 1, "b": nan()},
	} {
		if _, err := finish(specs, vals); err == nil {
			t.Errorf("%s: finish accepted %v", name, vals)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric tables and workloads in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); got != strings.Join([]string{"[", strings.Join(names, " "), "]"}, "") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %s", names, got)
	}
}
