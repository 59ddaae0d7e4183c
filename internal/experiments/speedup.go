package experiments

import (
	"fmt"
	"time"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/cpu"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/memsys"
	"fssim/internal/stats"
	"fssim/internal/workload"
)

// ModeCosts holds the measured host cost per simulated instruction for each
// simulation detail level, mirroring the paper's Table 1 methodology: the
// slowdown of each mode relative to the fastest (in-order, no caches), plus
// the pure-emulation mode used to fast-forward prediction periods.
type ModeCosts struct {
	Emulation      float64 // ns per instruction
	InorderNoCache float64
	InorderCache   float64
	OOONoCache     float64
	OOOCache       float64
}

// measureModeCosts times a representative synthetic instruction stream
// through each backend. The stream mixes ALU work, strided and random loads
// and stores over a 4MB region, and loop branches — enough to exercise the
// cache and predictor paths that dominate detailed-mode cost.
func measureModeCosts(insts int) ModeCosts {
	stream := make([]isa.Inst, 0, 4096)
	base := uint64(0x1000_0000)
	pc := uint64(0x40_0000)
	rng := uint64(88172645463325252)
	for i := 0; len(stream) < cap(stream); i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		switch i % 8 {
		case 0:
			stream = append(stream, isa.Inst{Op: isa.ALU, PC: pc, Dep: 4})
		case 1:
			stream = append(stream, isa.Inst{Op: isa.LOAD, PC: pc + 4,
				Addr: base + uint64(i%65536)*64, Size: 8, Dep: 1})
		case 2, 3:
			stream = append(stream, isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1})
		case 4:
			stream = append(stream, isa.Inst{Op: isa.LOAD, PC: pc + 12,
				Addr: base + rng%(4<<20), Size: 8})
		case 5:
			stream = append(stream, isa.Inst{Op: isa.STORE, PC: pc + 16,
				Addr: base + uint64(i%32768)*64, Size: 8})
		case 6:
			stream = append(stream, isa.Inst{Op: isa.MUL, PC: pc + 20})
		default:
			stream = append(stream, isa.Inst{Op: isa.BRANCH, PC: pc + 24,
				Taken: i%3 != 0, Target: pc})
		}
	}
	timeCore := func(mk func() cpu.Core) float64 {
		c := mk()
		start := time.Now()
		n := 0
		for n < insts {
			for j := range stream {
				c.Exec(&stream[j], cache.OwnerOS)
				n++
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	var mc ModeCosts
	ccfg := cpu.DefaultConfig()
	mcfg := memsys.DefaultConfig()
	mc.InorderNoCache = timeCore(func() cpu.Core { return cpu.NewInOrder(ccfg, nil) })
	mc.InorderCache = timeCore(func() cpu.Core { return cpu.NewInOrder(ccfg, memsys.New(mcfg)) })
	mc.OOONoCache = timeCore(func() cpu.Core { return cpu.NewOOO(ccfg, nil) })
	mc.OOOCache = timeCore(func() cpu.Core { return cpu.NewOOO(ccfg, memsys.New(mcfg)) })

	// Emulation mode: time the path the machine runs while it fast-forwards
	// an OS service — an Accelerated machine whose sink emulates every
	// interval, fed through the Emitter helpers. Each round's CopyLines and
	// ScanLines carry the stream's share of loads (1/4) and stores (1/8).
	m := machine.New(machine.Config{Mode: machine.Accelerated, Core: machine.CoreOOO,
		WithCaches: true, CPU: ccfg, Mem: mcfg})
	m.SetSink(&emulateAll{})
	e := m.Emitter()
	m.KEnter(isa.Sys(isa.SysRead))
	start := time.Now()
	n := 0
	for n < insts {
		e.CopyLines(base+4<<20, base, 16)
		e.ScanLines(base, 16, 64)
		n += 128
	}
	mc.Emulation = float64(time.Since(start).Nanoseconds()) / float64(n)
	m.KExit()
	if mc.Emulation <= 0 {
		mc.Emulation = 0.1
	}
	return mc
}

// emulateAll is an IntervalSink that fast-forwards every OS service at an
// estimated CPI of 1 and predicts one cycle per instruction.
type emulateAll struct{ pred machine.Prediction }

func (s *emulateAll) OnServiceStart(isa.ServiceID) (bool, float64) { return false, 1 }

func (s *emulateAll) OnServiceEnd(_ isa.ServiceID, sig machine.Signature, _ *machine.Measurement) *machine.Prediction {
	s.pred = machine.Prediction{Cycles: sig.Insts}
	return &s.pred
}

// Table1 regenerates the paper's Table 1: the slowdown ratios of the
// simulation modes relative to the fastest mode (in-order without caches).
// The paper measured Simics at 3x / 64x / 133x; our substrate's ratios
// differ (the timestamp-based OOO model is far cheaper than an event-driven
// one), and the measured values feed Table 2's Eq-10 speedup estimates.
// The measurement is shared with Table 2 through the scheduler (taken once,
// with the worker pool drained so concurrent simulations cannot skew it)
// and can be pinned via Config.ModeCosts for reproducible output.
func Table1(cfg Config) (*Result, error) {
	mc := cfg.sched.modeCosts()
	t := NewTable("mode", "ns/inst", "slowdown vs inorder-nocache")
	rows := []struct {
		name string
		v    float64
	}{
		{"emulation (fast-forward)", mc.Emulation},
		{"inorder-nocache", mc.InorderNoCache},
		{"inorder-cache", mc.InorderCache},
		{"ooo-nocache", mc.OOONoCache},
		{"ooo-cache", mc.OOOCache},
	}
	for _, r := range rows {
		t.AddRowf(r.name, f2(r.v), f1(r.v/mc.InorderNoCache)+"x")
	}
	notes := []string{
		fmt.Sprintf("detailed(ooo-cache)/emulation ratio R = %.0fx (paper assumes 133x for Eq 10)",
			mc.OOOCache/mc.Emulation),
	}
	if cfg.ModeCosts != nil {
		notes = append(notes, "mode costs pinned via Config.ModeCosts (not measured on this host)")
	}
	return &Result{Table: t, Notes: notes}, nil
}

// SpeedupEq10 computes the paper's Eq 10: with N total instructions, X of
// them fast-forwarded, and a detailed/emulation cost ratio R,
// speedup = N / (X/R + (N-X)).
func SpeedupEq10(n, x uint64, r float64) float64 {
	if n == 0 || r <= 0 {
		return 1
	}
	den := float64(x)/r + float64(n-x)
	if den <= 0 {
		return 1
	}
	return float64(n) / den
}

// tab2Needs declares tab2's runs: a Statistical accelerated run per
// OS-intensive benchmark (shared with fig8/fig9's cache entries).
func tab2Needs(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range workload.OSIntensiveNames() {
		keys = append(keys, cfg.accelKey(name, core.Statistical, 0))
	}
	return keys
}

// Table2 regenerates the paper's Table 2: estimated simulation speedups per
// benchmark under the Statistical strategy, from instruction coverage and
// the mode-cost ratio — with the paper's R=133 and with our measured R.
// The paper reports 2.8x-15.6x with a 4.9x geometric mean.
func Table2(cfg Config) (*Result, error) {
	mc := cfg.sched.modeCosts()
	rMeasured := mc.OOOCache / mc.Emulation
	const rPaper = 133
	t := NewTable("benchmark", "insts fast-forwarded", "coverage",
		"speedup (R=133)", fmt.Sprintf("speedup (R=%.0f measured)", rMeasured))
	var sp133, spM []float64
	for _, name := range workload.OSIntensiveNames() {
		res, acc, err := accelRun(cfg, name, core.Statistical, 0)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		s1 := SpeedupEq10(st.Insts, st.EmuInsts, rPaper)
		s2 := SpeedupEq10(st.Insts, st.EmuInsts, rMeasured)
		sp133 = append(sp133, s1)
		spM = append(spM, s2)
		t.AddRowf(name, pct(float64(st.EmuInsts)/float64(st.Insts)),
			pct(acc.Summary().Coverage()), f1(s1)+"x", f1(s2)+"x")
	}
	t.AddRowf("gmean", "", "", f1(stats.GeoMean(sp133))+"x", f1(stats.GeoMean(spM))+"x")
	return &Result{Table: t, Notes: []string{
		"Eq 10: speedup = N / (X/R + (N-X)); paper reports 2.8x-15.6x, gmean 4.9x at R=133.",
	}}, nil
}
