package cpu

import (
	"math/rand"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// refSkipTo is OOOCore.SkipTo as it was before the completion/commit history
// clamp was dropped, kept verbatim as a test-only reference:
// TestSkipToMatchesReference drives a core through it and a twin through
// SkipTo and requires identical timing.
func refSkipTo(c *OOOCore, cycle uint64) {
	if cycle < c.lastCommit {
		cycle = c.lastCommit
	}
	c.lastCommit = cycle
	c.commitCycle, c.commitCount = cycle, 0
	if c.fetchCycle < cycle {
		c.fetchCycle, c.fetchCount = cycle, 0
	}
	if c.dispCycle < cycle {
		c.dispCycle, c.dispCount = cycle, 0
	}
	// In-flight dataflow state is stale after a skip: make prior completion
	// times no later than the resume point.
	for i := range c.comp {
		if c.comp[i] > cycle {
			c.comp[i] = cycle
		}
		if c.cmt[i] > cycle {
			c.cmt[i] = cycle
		}
	}
	c.redirect = true
}

// randInst draws one instruction of a mixed stream: every opcode class, short
// and long dependence distances (up to the 255 the encoding allows), loads
// and stores over a region larger than the L2, and data-dependent branches.
func randInst(rng *rand.Rand, pc uint64) isa.Inst {
	in := isa.Inst{PC: pc, Dep: uint8(rng.Intn(6))}
	if rng.Intn(16) == 0 {
		in.Dep = uint8(rng.Intn(256))
		in.Dep2 = uint8(rng.Intn(256))
	}
	switch r := rng.Intn(20); {
	case r < 6:
		in.Op = isa.ALU
	case r < 9:
		in.Op = isa.LOAD
		in.Addr, in.Size = uint64(rng.Intn(8<<20))&^7, 8
	case r < 11:
		in.Op = isa.STORE
		in.Addr, in.Size = uint64(rng.Intn(8<<20))&^7, 8
	case r < 15:
		in.Op = isa.BRANCH
		in.Taken, in.Target = rng.Intn(3) != 0, pc&^0xfff
	case r == 15:
		in.Op = isa.MUL
	case r == 16:
		in.Op = isa.DIV
	case r == 17:
		in.Op = isa.FPU
	case r == 18:
		in.Op = isa.FDIV
	default:
		in.Op = []isa.Opcode{isa.SYSCALL, isa.IRET}[rng.Intn(2)]
	}
	return in
}

// TestSkipToMatchesReference drives random Exec/SkipTo sequences through an
// OOOCore and through a twin whose skips go through refSkipTo. After every
// step, every completion and commit history entry must be at most Now (the
// invariant that makes the reference's clamp a no-op), and the twins must
// agree on Now, Retired, predictor statistics and both histories.
func TestSkipToMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		memCfg := memsys.DefaultConfig()
		var a, b *OOOCore
		if seed%2 == 0 {
			a, b = NewOOO(DefaultConfig(), memsys.New(memCfg)), NewOOO(DefaultConfig(), memsys.New(memCfg))
		} else {
			a, b = NewOOO(DefaultConfig(), nil), NewOOO(DefaultConfig(), nil)
		}
		pc := uint64(0x40_0000)
		for step := 0; step < 20_000; step++ {
			if rng.Intn(50) == 0 {
				// Skips backwards (a no-op), by nothing, or forward by up
				// to a long predicted interval.
				var to uint64
				switch rng.Intn(3) {
				case 0:
					to = a.Now() - uint64(rng.Intn(int(a.Now()%64+1)))
				case 1:
					to = a.Now()
				default:
					to = a.Now() + uint64(rng.Intn(5000))
				}
				a.SkipTo(to)
				refSkipTo(b, to)
			} else {
				in := randInst(rng, pc)
				pc += 4
				if in.Op == isa.BRANCH && in.Taken {
					pc = in.Target
				}
				owner := cache.OwnerApp
				if rng.Intn(2) == 0 {
					owner = cache.OwnerOS
				}
				inB := in
				a.Exec(&in, owner)
				b.Exec(&inB, owner)
			}
			now := a.Now()
			for i := range a.comp {
				if a.comp[i] > now || a.cmt[i] > now {
					t.Fatalf("seed %d step %d: history slot %d comp=%d cmt=%d past Now=%d",
						seed, step, i, a.comp[i], a.cmt[i], now)
				}
			}
			la, ma := a.Predictor().Stats()
			lb, mb := b.Predictor().Stats()
			if now != b.Now() || a.Retired() != b.Retired() || la != lb || ma != mb ||
				a.comp != b.comp || a.cmt != b.cmt {
				t.Fatalf("seed %d step %d: Now %d/%d Retired %d/%d predictor %d,%d/%d,%d",
					seed, step, now, b.Now(), a.Retired(), b.Retired(), la, ma, lb, mb)
			}
		}
	}
}
