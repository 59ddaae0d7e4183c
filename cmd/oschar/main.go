// Command oschar performs the paper's §3 characterization of OS-service
// performance: per-service statistics (Fig 3), per-invocation series
// (Fig 4), and instruction x cycle behavior-point histograms (Fig 5).
//
// Usage:
//
//	oschar -bench ab-rand                         # Fig-3 style summary
//	oschar -bench ab-seq -service sys_read        # one service's profile
//	oschar -bench ab-rand -service sys_read -series   # Fig-4 series (CSV)
//	oschar -bench ab-rand -service sys_read -hist     # Fig-5 bubbles (CSV)
package main

import (
	"flag"
	"fmt"
	"os"

	"fssim"
	"fssim/internal/core"
)

func main() {
	bench := flag.String("bench", "ab-rand", "benchmark name")
	service := flag.String("service", "", "restrict to one service (e.g. sys_read, Int_239)")
	series := flag.Bool("series", false, "dump the per-invocation (insts, cycles) series as CSV")
	hist := flag.Bool("hist", false, "dump the instruction x cycle bubble histogram as CSV")
	instBin := flag.Float64("instbin", 1000, "instruction bin width for -hist")
	cycleBin := flag.Float64("cyclebin", 4000, "cycle bin width for -hist")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	flag.Parse()

	prof := core.NewProfiler()
	if _, err := fssim.RunBenchmark(*bench, fssim.Options{Scale: *scale, Observer: prof.Observer()}); err != nil {
		fmt.Fprintf(os.Stderr, "oschar: %v\n", err)
		os.Exit(1)
	}

	for _, sp := range prof.Services() {
		if *service != "" && sp.Service.String() != *service {
			continue
		}
		switch {
		case *series:
			fmt.Printf("# %s %s: invocation,insts,cycles\n", *bench, sp.Service)
			for i, s := range sp.Series {
				fmt.Printf("%d,%d,%d\n", i, s.Insts, s.Cycles)
			}
		case *hist:
			fmt.Printf("# %s %s: inst_bin_center,cycle_bin_center,count\n", *bench, sp.Service)
			for _, c := range sp.Hist2D(*instBin, *cycleBin).Cells() {
				fmt.Printf("%.0f,%.0f,%d\n", c.X, c.Y, c.Count)
			}
		default:
			if sp.N < 2 && *service == "" {
				continue
			}
			fmt.Printf("%-18s n=%-6d cycles %9.0f ±%-9.0f IPC %.3f ±%.3f  insts %8.0f  clusters %d\n",
				sp.Service, sp.N,
				sp.Cycles.Mean(), sp.Cycles.Std(),
				sp.IPC.Mean(), sp.IPC.Std(),
				sp.Insts.Mean(), len(sp.Table.Clusters))
		}
	}
}
