// Command fssim runs a single benchmark on the simulated full-system
// platform and prints a performance report.
//
// Usage:
//
//	fssim -bench ab-rand                  # detailed full-system simulation
//	fssim -bench ab-rand -mode accel      # the paper's accelerated scheme
//	fssim -bench du -mode apponly         # application-only baseline
//	fssim -bench iperf -l2 2097152        # 2MB L2
//	fssim -bench ab-rand -sample default  # stratified app-interval sampling
//	fssim -bench ab-rand -mode accel -warm-dir warm   # persist + warm-start the PLT
//	fssim -bench ab-rand -mode accel -warm-dir warm -l2 2097152 -transfer
//	                                      # no exact snapshot? import the nearest
//	                                      # eligible neighbor config's PLT instead
//	fssim -list                           # available benchmarks
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fssim"
	"fssim/internal/experiments"
	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fssim invocation and returns its exit status: 0 on
// success, 1 on a run error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ab-rand", "benchmark name")
	mode := fs.String("mode", "full", "simulation mode: full | apponly | accel")
	strategy := fs.String("strategy", "statistical", "re-learning strategy for accel mode: bestmatch | eager | delayed | statistical")
	scale := fs.Float64("scale", 1.0, "workload size multiplier")
	l2 := fs.Int("l2", 0, "L2 size in bytes (0 = default 1MB)")
	seed := fs.Int64("seed", 1, "simulation seed")
	inorder := fs.Bool("inorder", false, "use the in-order core model")
	nocache := fs.Bool("nocache", false, "disable the cache models (ideal memory)")
	services := fs.Bool("services", false, "print the per-service report (accel mode)")
	trace := fs.String("trace", "", "write every OS service interval as CSV to this file ('-' = stdout)")
	tlb := fs.Bool("tlb", false, "enable TLB modeling (64-entry I/D TLBs, 30-cycle walks)")
	prefetch := fs.Bool("prefetch", false, "enable the L2 next-line prefetcher")
	warmDir := fs.String("warm-dir", "", "accel mode: import a persisted PLT snapshot from this directory before simulating, and persist the learned table after (empty = off)")
	transferOn := fs.Bool("transfer", false, "accel mode with -warm-dir: when no exact snapshot exists, warm-start the PLT from the nearest transfer-eligible donor configuration instead")
	sampleSpec := fs.String("sample", "", "stratified app-interval sampling spec: a preset ("+strings.Join(sample.PresetNames(), ", ")+") or key=value list (empty = every app interval detailed)")
	list := fs.Bool("list", false, "list benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "fssim: %v\n", err)
		return 1
	}

	if *list {
		for _, name := range workload.Names() {
			b, _ := workload.Lookup(name)
			kind := "compute "
			if b.OSIntensive {
				kind = "OS-heavy"
			}
			fmt.Fprintf(stdout, "%-8s %s  %s\n", name, kind, b.Description)
		}
		return 0
	}

	m, err := experiments.ParseMode(*mode)
	if err != nil {
		return fail(err)
	}
	strat, err := experiments.ParseStrategy(*strategy)
	if err != nil {
		return fail(err)
	}
	o := fssim.Options{
		Mode: m, Strategy: strat, Scale: *scale, L2Size: *l2, Seed: *seed,
		InOrder: *inorder, NoCaches: *nocache, TLB: *tlb, Prefetch: *prefetch,
		Sample: *sampleSpec, WarmDir: *warmDir, Transfer: *transferOn,
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintf(stderr, "fssim: %v\n", err)
		return 2
	}
	if *trace != "" {
		out := stdout
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			out = f
		}
		traceW := csv.NewWriter(out)
		defer traceW.Flush()
		traceW.Write([]string{"service", "insts", "loads", "stores",
			"branches", "cycles", "emulated", "l1d_misses", "l2_misses"})
		o.Observer = func(r machine.IntervalRecord) {
			row := []string{
				r.Service.String(),
				strconv.FormatUint(r.Insts, 10),
				strconv.FormatUint(r.Sig.Loads, 10),
				strconv.FormatUint(r.Sig.Stores, 10),
				strconv.FormatUint(r.Sig.Branches, 10),
				strconv.FormatUint(r.Cycles, 10),
				strconv.FormatBool(r.Emulated),
				"", "",
			}
			if r.Meas != nil {
				row[7] = strconv.FormatUint(r.Meas.L1D.Misses, 10)
				row[8] = strconv.FormatUint(r.Meas.L2.Misses, 10)
			}
			traceW.Write(row)
		}
	}

	rep, err := fssim.RunBenchmark(*bench, o)
	if err != nil {
		return fail(err)
	}
	if o.Transfer && !rep.WarmStarted && rep.Transfer == nil {
		fmt.Fprintf(stderr, "fssim: transfer: no eligible donor in %s; starting cold\n", *warmDir)
	}
	if rep.SaveErr != nil {
		fmt.Fprintf(stderr, "fssim: plt snapshot not saved: %v\n", rep.SaveErr)
	}
	st := rep.Stats

	fmt.Fprintf(stdout, "benchmark        %s (%s mode, scale %.2f)\n", *bench, m, *scale)
	fmt.Fprintf(stdout, "instructions     %d (user %d, OS %d = %.1f%%)\n",
		st.Insts, st.UserInsts, st.OSInsts, 100*float64(st.OSInsts)/float64(st.Insts))
	fmt.Fprintf(stdout, "cycles           %d (IPC %.3f)\n", st.Cycles, st.IPC())
	fmt.Fprintf(stdout, "OS intervals     %d (context switches %d, timer ticks %d)\n",
		st.Intervals, rep.Kernel.ContextSwitches(), rep.Kernel.Ticks())
	if !*nocache {
		l1i, l1d, l2r := st.MissRates()
		fmt.Fprintf(stdout, "miss rates       L1I %.3f%%  L1D %.3f%%  L2 %.3f%%  (DRAM %d)\n",
			100*l1i, 100*l1d, 100*l2r, st.DRAM)
	}
	fmt.Fprintf(stdout, "branches         %d lookups, %.2f%% mispredicted\n",
		st.BrLookups, 100*float64(st.BrMispreds)/float64(max(st.BrLookups, 1)))
	if acc := rep.Accel; acc != nil {
		sum := acc.Summary()
		warmNote := ""
		if rep.WarmStarted {
			warmNote = " (warm-started)"
		}
		fmt.Fprintf(stdout, "acceleration     coverage %.1f%% of %d invocations; %d clusters over %d services; %d re-learns; %d outliers%s\n",
			100*sum.Coverage(), sum.Learned+sum.Predicted, sum.Clusters, sum.Services,
			sum.Relearns, sum.Outliers, warmNote)
		fmt.Fprintf(stdout, "fast-forwarded   %d of %d instructions (%.1f%%)\n",
			st.EmuInsts, st.Insts, 100*float64(st.EmuInsts)/float64(st.Insts))
		if prov := rep.Transfer; prov != nil {
			fmt.Fprintf(stdout, "plt              %s (distance %.1f)\n", prov, prov.Distance)
		}
		if *services {
			fmt.Fprintln(stdout, "\nservice          seen   clusters  predicted  outliers  relearns")
			for _, row := range acc.Report() {
				fmt.Fprintf(stdout, "%-16s %-6d %-9d %-10d %-9d %d\n",
					row.Service, row.Seen, row.Clusters, row.Predicted, row.Outliers, row.Relearns)
			}
		}
	}
	if rep.Sample != nil {
		fmt.Fprintf(stdout, "sampling         %s\n", rep.Sample.Summary(st.Cycles))
	}
	fmt.Fprintf(stdout, "host time        %.2fs (%.0f ns/inst)\n",
		rep.Wall.Seconds(), float64(rep.Wall.Nanoseconds())/float64(st.Insts))
	return 0
}
