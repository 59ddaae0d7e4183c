package main

import (
	"time"

	"fssim/internal/cache"
	"fssim/internal/cpu"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// Layer probes time a public entry point of one simulator layer from outside,
// in a loop of fixed length, and report the median over several repeats. A
// first, untimed repeat fills the model's state (and the host's caches).

const (
	probeOps  = 1 << 20
	probeReps = 5
)

// sink keeps the compiler from discarding probed calls.
var sink uint64

// probeNs returns the median host ns per call of op over probeReps loops of
// probeOps calls, after one untimed loop.
func probeNs(op func(i int)) float64 {
	loop := func() time.Duration {
		return timed(func() {
			for i := 0; i < probeOps; i++ {
				op(i)
			}
		})
	}
	loop()
	var ns []float64
	for r := 0; r < probeReps; r++ {
		ns = append(ns, float64(loop().Nanoseconds())/probeOps)
	}
	return median(ns)
}

func simProbes(rep *report) error {
	mcfg := memsys.DefaultConfig()

	// L1-resident: an 8 KB loop through the 16 KB L1D, every access a hit.
	l1 := cache.New(mcfg.L1D)
	rep.set("cache.access_ns.resident", probeNs(func(i int) {
		if l1.Access(uint64(i%128)*64, 1, false, cache.OwnerApp).Hit {
			sink++
		}
	}))

	// Streaming: a 4 MB sweep through the 1 MB L2, every access a miss.
	l2 := cache.New(mcfg.L2)
	rep.set("cache.access_ns.stream", probeNs(func(i int) {
		if l2.Access(uint64(i%(4<<20/64))*64, 1, i&7 == 0, cache.OwnerApp).Hit {
			sink++
		}
	}))

	// Hierarchy.Data over 256 KB: L1D misses that hit in L2.
	h := memsys.New(mcfg)
	rep.set("memsys.data_ns", probeNs(func(i int) {
		sink += h.Data(0x10_0000+uint64(i%4096)*64, 8, uint64(i), i&3 == 0, cache.OwnerApp)
	}))

	// OOOCore.Exec over a loop of ALU work, a strided load, a dependent ALU
	// op and a taken branch.
	c := cpu.NewOOO(cpu.DefaultConfig(), memsys.New(mcfg))
	insts := instLoop()
	rep.set("cpu.ooo_exec_ns", probeNs(func(i int) {
		c.Exec(&insts[i%len(insts)], cache.OwnerApp)
	}))
	sink += c.Now()
	return nil
}

// instLoop is the OOOCore probe's instruction stream.
func instLoop() []isa.Inst {
	const pc = 0x40_0000
	s := make([]isa.Inst, 0, 4096)
	for i := 0; len(s) < cap(s); i++ {
		s = append(s,
			isa.Inst{Op: isa.ALU, PC: pc},
			isa.Inst{Op: isa.LOAD, PC: pc + 4, Addr: 0x10_0000 + uint64(i%1024)*64, Size: 8, Dep: 1},
			isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1},
			isa.Inst{Op: isa.BRANCH, PC: pc + 12, Taken: true, Target: pc})
	}
	return s
}
