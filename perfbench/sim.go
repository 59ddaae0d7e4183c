package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/workload"
)

// The paper's five OS-intensive benchmarks and its four SPEC controls.
var (
	osBenches   = []string{"ab-rand", "ab-seq", "du", "find-od", "iperf"}
	specBenches = []string{"gzip", "vpr", "art", "swim"}
)

// simWorkload is a simulator workload: sequential workload.Run calls over a
// benchmark set at scale 1.0 with empty simulated caches. The timed phase
// runs mode; setup runs the other of FullSystem and Accelerated, so that
// every simulator workload measures the accelerated model's cycle error
// against a same-seed full-system reference.
type simWorkload struct {
	benches []string
	mode    machine.SimMode
	// nominalPass is about how long one pass takes on a 2-core Xeon host; it
	// sets the fixed number of timed passes (see runConfig.passes).
	nominalPass time.Duration
}

// simRun is one finished simulation.
type simRun struct {
	stats       machine.Stats
	wall        time.Duration
	accel       core.Summary // zero unless Accelerated
	ctxSwitches uint64
	ticks       uint64
}

// simulate runs one benchmark. With a clock it is the traced variant.
func simulate(bench string, mode machine.SimMode, seed int64, clk *hostClock) (simRun, error) {
	opts := workload.DefaultOptions()
	opts.Machine.Mode = mode
	opts.Machine.Seed = seed
	var acc *core.Accelerator
	if mode == machine.Accelerated {
		acc = core.NewAccelerator(core.DefaultParams())
		opts.Sink = acc
	}
	if clk != nil {
		clk.attach(&opts)
		clk.begin()
	}
	start := time.Now()
	res, err := workload.Run(bench, opts)
	wall := time.Since(start)
	if clk != nil {
		clk.end()
	}
	if err != nil {
		return simRun{}, fmt.Errorf("%s (%s): %w", bench, mode, err)
	}
	r := simRun{stats: res.Stats, wall: wall,
		ctxSwitches: res.Kernel.ContextSwitches(), ticks: res.Kernel.Ticks()}
	if acc != nil {
		r.accel = acc.Summary()
	}
	return r, nil
}

// simPass is one pass: every benchmark once, in order.
type simPass struct {
	runs map[string]simRun
	cpu  time.Duration // process CPU time of the whole pass
	wall time.Duration
}

// runPass simulates every benchmark once, in order. It collects garbage
// first, outside the timed span, so every pass starts from the same heap.
func runPass(order []string, mode machine.SimMode, seed int64, clk *hostClock, rep *report) (simPass, error) {
	runtime.GC()
	p := simPass{runs: make(map[string]simRun, len(order))}
	var err error
	p.cpu, p.wall = cpuTimed(func() {
		for _, b := range order {
			var r simRun
			r, err = simulate(b, mode, seed, clk)
			rep.op(err)
			if err != nil {
				return
			}
			p.runs[b] = r
		}
	})
	return p, err
}

func shuffled[T any](xs []T, rng *rand.Rand) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// passTimes collects pass times over a phase.
type passTimes struct {
	cpu, wall []float64            // seconds per pass
	bench     map[string][]float64 // wall seconds per benchmark
}

func (t *passTimes) add(p simPass) {
	t.cpu = append(t.cpu, p.cpu.Seconds())
	t.wall = append(t.wall, p.wall.Seconds())
	if t.bench == nil {
		t.bench = map[string][]float64{}
	}
	for b, r := range p.runs {
		t.bench[b] = append(t.bench[b], r.wall.Seconds())
	}
}

func (w simWorkload) run(cfg runConfig, rep *report) error {
	order := shuffled(w.benches, cfg.rng(1))
	other := machine.FullSystem
	if w.mode == machine.FullSystem {
		other = machine.Accelerated
	}

	// Setup: the other mode's pass, repeated; every repeat must agree.
	var twin map[string]simRun
	var twinTimes passTimes
	var setupTimes []float64
	for i := 0; i < setupReps; i++ {
		pass, err := runPass(order, other, cfg.seed, nil, rep)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, pass.wall.Seconds())
		twinTimes.add(pass)
		if twin == nil {
			twin = pass.runs
			continue
		}
		for _, b := range order {
			rep.check(pass.runs[b].stats == twin[b].stats, "%s (%s): setup repeat %d stats differ", b, other, i)
		}
	}

	// Timed phase: a fixed number of whole passes, so that every commit does
	// the same work. A traced run alternates untraced and traced passes, so
	// both see the same machine conditions; every pass must reproduce the
	// first pass's statistics.
	var first map[string]simRun
	var times, tracedTimes passTimes
	clk := &hostClock{}
	for p := 0; p < cfg.passes(w.nominalPass); p++ {
		traced := cfg.trace && p%2 == 1
		var c *hostClock
		if traced {
			c = clk
		}
		pass, err := runPass(order, w.mode, cfg.seed, c, rep)
		if err != nil {
			return err
		}
		if first == nil {
			first = pass.runs
		}
		for _, b := range order {
			rep.check(pass.runs[b].stats == first[b].stats,
				"%s (%s): pass %d (traced=%v) stats differ from pass 0", b, w.mode, p, traced)
		}
		if traced {
			tracedTimes.add(pass)
		} else {
			times.add(pass)
		}
	}

	accel, full := first, twin
	if w.mode == machine.FullSystem {
		accel, full = twin, first
	}
	errPct := map[string]float64{}
	var errSum, covSum float64
	for _, b := range order {
		f, a := float64(full[b].stats.Cycles), float64(accel[b].stats.Cycles)
		errPct[b] = 100 * math.Abs(a-f) / f
		errSum += errPct[b]
		covSum += 100 * accel[b].stats.Coverage()
	}
	n := float64(len(order))

	if !cfg.trace {
		var insts uint64
		for _, b := range order {
			insts += first[b].stats.Insts
		}
		rep.set("ns_per_inst", median(times.cpu)*1e9/float64(insts))
		rep.set("cycle_err_pct", errSum/n)
		rep.set("coverage_pct", covSum/n)
		rep.set("setup_s", median(setupTimes))
		return nil
	}

	zeroFill(rep, perLayer)
	setClockMetrics(rep, clk)
	setStatMetrics(rep, first)
	for _, b := range order {
		rep.set("workload."+b+".wall_s", median(times.bench[b]))
		rep.set("workload."+b+".cycle_err_pct", errPct[b])
	}
	accelTimes, fullTimes := times, twinTimes
	if w.mode == machine.FullSystem {
		accelTimes, fullTimes = twinTimes, times
	}
	rep.set("workload.wall_speedup", median(fullTimes.wall)/median(accelTimes.wall))
	rep.set("bench.trace_overhead", median(tracedTimes.cpu)/median(times.cpu))
	return simProbes(rep)
}

// zeroFill sets every metric of specs to 0, for the layers a workload does
// not call.
func zeroFill(rep *report, specs []metricSpec) {
	for _, s := range specs {
		rep.set(s.name, 0)
	}
}

// setClockMetrics reports the traced passes' host-time split. The shares are
// of all host time the clock attributed, which is the traced runs' wall time.
func setClockMetrics(rep *report, c *hostClock) {
	total := c.appDetailed + c.osDetailed + c.osEmulated + c.learner + c.other
	perInst := func(d time.Duration, insts uint64) float64 {
		if insts == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(insts)
	}
	share := func(d time.Duration) float64 { return d.Seconds() / total.Seconds() }
	rep.set("machine.os_detailed.ns_per_inst", perInst(c.osDetailed, c.osDetailedInsts))
	rep.set("machine.os_detailed.share", share(c.osDetailed))
	rep.set("machine.app_detailed.ns_per_inst", perInst(c.appDetailed, c.appInsts))
	rep.set("machine.app_detailed.share", share(c.appDetailed))
	rep.set("machine.os_emulated.ns_per_inst", perInst(c.osEmulated, c.osEmulatedInsts))
	rep.set("machine.os_emulated.share", share(c.osEmulated))
	rep.set("machine.other.share", share(c.other))
	rep.set("core.learner.ns_per_interval", perInst(c.learner, c.learnerCalls))
	rep.set("core.learner.share", share(c.learner))
}

// setStatMetrics reports the simulated counts of one pass: the work each
// layer did, which a speed-only change leaves identical.
func setStatMetrics(rep *report, pass map[string]simRun) {
	var s machine.Stats
	var acc core.Summary
	var ctx, ticks uint64
	for _, r := range pass {
		st := r.stats
		s.Insts += st.Insts
		s.OSInsts += st.OSInsts
		s.Intervals += st.Intervals
		s.Emulated += st.Emulated
		s.DRAM += st.DRAM
		s.BrLookups += st.BrLookups
		s.BrMispreds += st.BrMispreds
		s.Mem.L1I = s.Mem.L1I.Add(st.Mem.L1I)
		s.Mem.L1D = s.Mem.L1D.Add(st.Mem.L1D)
		s.Mem.L2 = s.Mem.L2.Add(st.Mem.L2)
		acc.Clusters += r.accel.Clusters
		acc.Relearns += r.accel.Relearns
		acc.Outliers += r.accel.Outliers
		acc.Degrades += r.accel.Degrades
		ctx += r.ctxSwitches
		ticks += r.ticks
	}
	kinst := float64(s.Insts) / 1000
	rep.set("core.detailed_intervals", float64(s.Intervals-s.Emulated))
	rep.set("core.emulated_intervals", float64(s.Emulated))
	rep.set("core.clusters", float64(acc.Clusters))
	rep.set("core.relearns", float64(acc.Relearns))
	rep.set("core.outliers", float64(acc.Outliers))
	rep.set("core.degrades", float64(acc.Degrades))
	rep.set("cache.l1i.accesses_per_kinst", float64(s.Mem.L1I.Accesses)/kinst)
	rep.set("cache.l1d.accesses_per_kinst", float64(s.Mem.L1D.Accesses)/kinst)
	rep.set("cache.l2.accesses_per_kinst", float64(s.Mem.L2.Accesses)/kinst)
	rep.set("cache.l1i.miss_rate", s.Mem.L1I.MissRate())
	rep.set("cache.l1d.miss_rate", s.Mem.L1D.MissRate())
	rep.set("cache.l2.miss_rate", s.Mem.L2.MissRate())
	rep.set("memsys.dram_per_kinst", float64(s.DRAM)/kinst)
	rep.set("cpu.mispredict_rate", float64(s.BrMispreds)/float64(s.BrLookups))
	rep.set("kernel.ctx_switches", float64(ctx))
	rep.set("kernel.ticks", float64(ticks))
	rep.set("machine.intervals", float64(s.Intervals))
	rep.set("sim.os_inst_frac", float64(s.OSInsts)/float64(s.Insts))
}
