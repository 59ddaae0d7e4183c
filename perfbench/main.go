// Command perfbench is fssim's benchmark. It runs one named workload for a
// fixed time, checks every output it produces, and prints one JSON result
// line: the end-to-end metrics of BENCHMARK.json for an untraced run, or the
// per-layer metrics for a traced run (--trace 1). It exits 1 when any output
// check fails and 2 on a usage error.
//
//	go build -o perfbench . && ./perfbench --workload accel-os --seed 1 --seconds 10 --trace 0
//
// README.md defines each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"fssim/internal/machine"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what the command line selects.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workDir is a scratch directory owned by this run; it is removed at exit.
	workDir string
}

// passes is the fixed number of timed passes for a pass that nominally takes
// nominal: --seconds worth on the host the nominal times were measured on, and
// at least minPasses. It depends only on the command line, so a faster or
// slower commit does the same work and samples the same number of passes.
func (c runConfig) passes(nominal time.Duration) int {
	return max(minPasses, int(c.seconds/nominal))
}

// minPasses lets a traced run alternate untraced and traced passes.
const minPasses = 4

// rng returns a generator for cfg's seed, salted so that independent uses of
// the seed (run order, request order) draw independent streams.
func (c runConfig) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(c.seed*7919 + salt)) }

// report counts operations and failed output checks and collects metrics.
type report struct {
	attempted, failed int
	metrics           metricSet
}

// op records one operation; a non-nil err fails it.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check records one output check.
func (r *report) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.op(err)
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// workloads maps each workload name to its runner. A runner returns an error
// only when it cannot continue; failed outputs go through report.check.
var workloads = map[string]func(runConfig, *report) error{
	"fullsys-os":   simWorkload{osBenches, machine.FullSystem, 1500 * time.Millisecond}.run,
	"fullsys-spec": simWorkload{specBenches, machine.FullSystem, 500 * time.Millisecond}.run,
	"accel-os":     simWorkload{osBenches, machine.Accelerated, time.Second}.run,
	"serve-warm":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the machine configuration and the request order")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	work, err := os.MkdirTemp(".", ".perfbench-work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if abs, err := filepath.Abs(work); err == nil {
		work = abs
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: work}
	rep := &report{metrics: metricSet{}}
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	} else {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	metrics, err := finish(specs, rep.metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(resultLine{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// cpuTimed runs f and returns the process CPU time (user + system, all
// threads) and the wall time it took. CPU time leaves out the time the
// process spent descheduled on a shared host.
func cpuTimed(f func()) (cpu, wall time.Duration) {
	c := cpuTime()
	wall = timed(f)
	return cpuTime() - c, wall
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupReps is how many times a workload sets up; setup_s is their median.
const setupReps = 3
