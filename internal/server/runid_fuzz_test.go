package server

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"fssim/internal/core"
	"fssim/internal/experiments"
	"fssim/internal/machine"
)

// fmtKeyString is RunKey.String as it was built with fmt: the oracle the
// strconv form must match byte for byte, since run ids and snapshot
// addresses hash it.
func fmtKeyString(k experiments.RunKey) string {
	s := fmt.Sprintf("%s/%s/L2=%d/scale=%g", k.Bench, k.Mode, k.L2, k.Scale)
	var o uint64
	if k.Mode == machine.Accelerated {
		o = uint64(k.Strategy) + 1
		if k.Watchdog {
			o |= 1 << 8
		}
	}
	if o != 0 {
		s += fmt.Sprintf("/opts=%d", o)
	}
	if k.Faults != "" {
		s += "/faults=" + k.Faults
	}
	if k.Sample != "" {
		s += "/sample=" + k.Sample
	}
	if k.Transfer != "" {
		s += "/transfer=" + k.Transfer
	}
	return s
}

// fmtRunID is RunID as it was built with fmt.
func fmtRunID(k experiments.RunKey) string {
	h := fnv.New64a()
	io.WriteString(h, fmtKeyString(k))
	fmt.Fprintf(h, "|seed=%d", k.Seed)
	return fmt.Sprintf("r%016x", h.Sum64())
}

// FuzzRunKeyStringMatchesFmt: RunKey.String and RunID render exactly the
// bytes of their fmt forms for arbitrary keys, raw and normalized.
func FuzzRunKeyStringMatchesFmt(f *testing.F) {
	f.Add("ab-rand", int(machine.Accelerated), 0, 0.1, int64(1), 3, true, "", "", "")
	f.Add("du", int(machine.FullSystem), 512<<10, 1e21, int64(7), 0, false, "storm", "", "")
	f.Add("iperf", int(machine.AppOnly), 1<<20, 5e-324, int64(0), 1, true, "", "budget=8,min=2", "")
	f.Add("find-od", int(machine.Accelerated), 2<<20, 0.25, int64(-5), 0, false, "mild", "", "l2=524288")
	f.Add("swim", int(machine.Accelerated), -1, -0.0, int64(1001), -2, true, "", "", "store")
	f.Add("", 99, 1<<40, 1e-7, int64(1)<<62, 255, false, "", "", "")
	f.Add("gzip/\x00é", -3, 0, 123456.789, int64(-1)<<63, 2, true, "x", "y", "z")
	f.Fuzz(func(t *testing.T, bench string, mode, l2 int, scale float64, seed int64,
		strategy int, watchdog bool, faults, smp, xfer string) {
		k := experiments.RunKey{Bench: bench, Mode: machine.SimMode(mode), L2: l2, Scale: scale,
			Seed: seed, Strategy: core.Strategy(strategy), Watchdog: watchdog,
			Faults: faults, Sample: smp, Transfer: xfer}
		for _, k := range []experiments.RunKey{k, k.Key()} {
			if got, want := k.String(), fmtKeyString(k); got != want {
				t.Fatalf("String() = %q, fmt form %q", got, want)
			}
			if got, want := RunID(k), fmtRunID(k); got != want {
				t.Fatalf("RunID = %s, fmt form %s (key %q)", got, want, fmtKeyString(k))
			}
		}
	})
}
