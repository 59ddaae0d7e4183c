package memsys

import (
	"math/rand"
	"strings"
	"testing"

	"fssim/internal/cache"
)

func TestHitLatencies(t *testing.T) {
	h := New(DefaultConfig())
	// Cold: L1D miss, L2 miss -> DRAM latency dominates.
	cold := h.Data(0x1000, 8, 100, false, cache.OwnerApp) - 100
	if cold < 300 {
		t.Errorf("cold access latency %d, want >= DRAM 300", cold)
	}
	// Warm L1D hit.
	warm := h.Data(0x1000, 8, 1000, false, cache.OwnerApp) - 1000
	if warm != uint64(DefaultConfig().L1D.HitLatency) {
		t.Errorf("L1D hit latency %d, want %d", warm, DefaultConfig().L1D.HitLatency)
	}
	// L2 hit after L1 eviction: displace the L1D set (4-way, 64 sets).
	for i := uint64(1); i <= 4; i++ {
		h.Data(0x1000+i*4096, 8, 2000, false, cache.OwnerApp)
	}
	l2hit := h.Data(0x1000, 8, 30000, false, cache.OwnerApp) - 30000
	want := uint64(DefaultConfig().L1D.HitLatency + DefaultConfig().L2.HitLatency)
	if l2hit != want {
		t.Errorf("L2 hit latency %d, want %d", l2hit, want)
	}
}

func TestMissOverlapBusBound(t *testing.T) {
	h := New(DefaultConfig())
	// 64 independent misses issued back to back: completion of the last
	// should reflect bus pipelining (~40 cycles apart), not serial 300s.
	var last uint64
	for i := uint64(0); i < 64; i++ {
		last = h.Data(0x100_0000+i*64, 8, i, false, cache.OwnerApp)
	}
	if last > 64*40+400 {
		t.Errorf("last completion %d: misses not overlapped", last)
	}
	if last < 300 {
		t.Errorf("last completion %d: missing DRAM latency", last)
	}
}

func TestCoalescing(t *testing.T) {
	h := New(DefaultConfig())
	a := h.Data(0x200_0000, 8, 10, false, cache.OwnerApp)
	// Second request to the same line while in flight coalesces: same
	// completion, no extra DRAM transaction. The line is dropped from both
	// levels first (as a flush would), so the request misses again and
	// reaches the MSHR file instead of hitting the L1D.
	h.l1d.Invalidate(0x200_0000)
	h.l2.Invalidate(0x200_0000)
	dram := h.DRAMAccesses()
	b := h.Data(0x200_0008, 8, 12, false, cache.OwnerApp)
	if h.DRAMAccesses() != dram {
		t.Error("coalesced access generated a DRAM transaction")
	}
	if b > a {
		t.Errorf("coalesced completion %d after original %d", b, a)
	}
}

func TestStraddlingAccess(t *testing.T) {
	h := New(DefaultConfig())
	h.Data(0x3000, 8, 0, false, cache.OwnerApp) // line 0x3000 resident
	st0 := h.Stats().L1D
	h.Data(0x303C, 8, 100, false, cache.OwnerApp) // straddles 0x3000/0x3040
	d := h.Stats().L1D.Sub(st0)
	if d.Misses != 1 {
		t.Errorf("straddling access misses = %d, want 1 (second line only)", d.Misses)
	}
}

func TestFetchPath(t *testing.T) {
	h := New(DefaultConfig())
	cold := h.Fetch(0x40_0000, 0, cache.OwnerOS)
	if cold < 300 {
		t.Errorf("cold fetch %d, want DRAM-latency bound", cold)
	}
	warm := h.Fetch(0x40_0000, 1000, cache.OwnerOS) - 1000
	if warm != uint64(DefaultConfig().L1I.HitLatency) {
		t.Errorf("warm fetch latency %d", warm)
	}
	if h.Stats().L1I.Misses != 1 {
		t.Errorf("L1I misses = %d", h.Stats().L1I.Misses)
	}
}

func TestInjectBusTraffic(t *testing.T) {
	h := New(DefaultConfig())
	h.InjectBusTraffic(100, 0) // 100 transfers from cycle 0: bus busy 4000
	start := h.Data(0x400_0000, 8, 10, false, cache.OwnerApp)
	// The fill queues behind the injected traffic: 4000 + ~300.
	if start < 4000 {
		t.Errorf("access at %d did not queue behind injected bus traffic", start)
	}
}

func TestTouchPhantomsStableFootprint(t *testing.T) {
	h := New(DefaultConfig())
	// Fill some app lines.
	for i := uint64(0); i < 512; i++ {
		h.Data(0x500_0000+i*64, 8, i, false, cache.OwnerApp)
	}
	base := uint64(0xF000_0000_0000_0000)
	h.TouchPhantoms(base, 0, 256, 256)
	ev1 := h.L1D().Stats().PollutionEv
	// Re-touching the same phantom set displaces (almost) nothing new.
	h.TouchPhantoms(base, 0, 256, 256)
	ev2 := h.L1D().Stats().PollutionEv
	if ev1 == 0 {
		t.Error("first phantom touch displaced nothing")
	}
	if ev2 != ev1 {
		t.Errorf("repeated phantom touch displaced %d more lines", ev2-ev1)
	}
}

func TestWithL2Size(t *testing.T) {
	cfg := DefaultConfig().WithL2Size(512 << 10)
	if cfg.L2.Size != 512<<10 {
		t.Fatalf("L2 size = %d", cfg.L2.Size)
	}
	if DefaultConfig().L2.Size != 1<<20 {
		t.Fatal("WithL2Size mutated the default")
	}
	h := New(cfg)
	if h.L2().Config().Size != 512<<10 {
		t.Fatal("hierarchy ignored L2 size")
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := New(DefaultConfig())
	// Dirty a line, evict it from L1 and L2 by streaming writes.
	h.Data(0x6000, 64, 0, true, cache.OwnerApp)
	before := h.DRAMAccesses()
	for i := uint64(1); i < 40000; i++ {
		h.Data(0x600_0000+i*64, 64, i*50, true, cache.OwnerApp)
	}
	if h.DRAMAccesses() <= before+40000 {
		t.Errorf("no writeback traffic observed: %d DRAM accesses", h.DRAMAccesses())
	}
}

func TestTLBModeling(t *testing.T) {
	h := New(DefaultConfig().WithTLB())
	// First touch of a page: TLB miss adds the walk latency on top of the
	// memory access.
	cold := h.Data(0x70_0000, 8, 0, false, cache.OwnerApp)
	if cold < 330 {
		t.Errorf("cold access with TLB walk completed at %d, want >= 330", cold)
	}
	// Same page: TLB hit; same line: L1D hit.
	warm := h.Data(0x70_0008, 8, 1000, false, cache.OwnerApp) - 1000
	if warm != uint64(DefaultConfig().L1D.HitLatency) {
		t.Errorf("warm access latency %d", warm)
	}
	_, dtlb := h.TLBStats()
	if dtlb.Misses != 1 {
		t.Errorf("DTLB misses = %d", dtlb.Misses)
	}
	// Flush: next access misses the TLB again.
	h.FlushTLB()
	h.Data(0x70_0010, 8, 2000, false, cache.OwnerApp)
	_, dtlb = h.TLBStats()
	if dtlb.Misses != 2 {
		t.Errorf("post-flush DTLB misses = %d", dtlb.Misses)
	}
}

func TestTLBDisabledByDefault(t *testing.T) {
	h := New(DefaultConfig())
	h.FlushTLB() // must be a no-op, not a panic
	i, d := h.TLBStats()
	if i.Accesses != 0 || d.Accesses != 0 {
		t.Error("TLB active despite default config")
	}
}

func TestPrefetchNextLine(t *testing.T) {
	h := New(DefaultConfig().WithPrefetch())
	// A streaming scan: with next-line prefetch, line N+1 is L2-resident by
	// the time the demand access arrives.
	h.Data(0x80_0000, 8, 0, false, cache.OwnerApp)
	if h.Prefetches() == 0 {
		t.Fatal("no prefetch issued")
	}
	if !h.L2().Probe(0x80_0040) {
		t.Fatal("next line not prefetched into L2")
	}
	// Demand access to the prefetched line: L2 hit (no new DRAM fill needed
	// beyond the prefetch's own).
	st0 := h.Stats().L2
	h.Data(0x80_0040, 8, 5000, false, cache.OwnerApp)
	if d := h.Stats().L2.Sub(st0); d.Misses != 0 {
		t.Errorf("prefetched line still missed: %+v", d)
	}
}

// TestPrefetchEvictsLikeDemandFill checks that a prefetch displacing a dirty
// L2 line writes it back — a DRAM transaction and a bus slot, counted as an
// eviction and a writeback, not as pollution — and that the prefetched line
// belongs to the demand access's owner.
func TestPrefetchEvictsLikeDemandFill(t *testing.T) {
	h := New(DefaultConfig().WithPrefetch())
	const demand = 0x40_0000 // L2 set 0; its next line maps to set 1
	stride := uint64(h.cfg.L2.Size / h.cfg.L2.Assoc)
	for k := uint64(1); k <= uint64(h.cfg.L2.Assoc); k++ {
		h.l2.Access(demand+64+k*stride, 1, true, cache.OwnerOS) // fill set 1 dirty
	}
	st0, dram0 := h.Stats().L2, h.DRAMAccesses()
	h.Data(demand, 8, 1000, false, cache.OwnerApp)
	if h.Prefetches() != 1 {
		t.Fatalf("prefetches = %d, want 1", h.Prefetches())
	}
	// Demand fill + prefetch fill + the dirty victim's writeback.
	if d := h.DRAMAccesses() - dram0; d != 3 {
		t.Errorf("DRAM accesses = %d, want 3", d)
	}
	d := h.Stats().L2.Sub(st0)
	if d.Evictions != 1 || d.Writebacks != 1 || d.PollutionEv != 0 {
		t.Errorf("L2 delta %+v, want 1 eviction, 1 writeback, no pollution", d)
	}
	if d.Accesses != 1 || d.Misses != 1 {
		t.Errorf("L2 delta %+v: the prefetch must not count as an access", d)
	}
	if app, os := h.l2.OwnedLines(); app != 2 || os != 7 {
		t.Errorf("L2 owned (app %d, os %d), want (2, 7): prefetch takes the demand owner", app, os)
	}
}

// TestNewRejectsBadConfig: a hierarchy without MSHRs, or with a negative
// latency or bus occupancy, is refused at construction with a clear message
// instead of failing on the first miss.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero MSHRs", func(c *Config) { c.MSHRs = 0 }, "MSHRs=0"},
		{"negative MSHRs", func(c *Config) { c.MSHRs = -2 }, "MSHRs=-2"},
		{"negative memory latency", func(c *Config) { c.MemLatency = -1 }, "negative latency"},
		{"negative bus occupancy", func(c *Config) { c.BusOccupancy = -40 }, "negative latency"},
		{"negative L1D hit latency", func(c *Config) { c.L1D.HitLatency = -2 }, "negative latency"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.edit(&cfg)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("New panicked with %q, want a message containing %q", msg, tc.want)
				}
			}()
			New(cfg)
		})
	}
	cfg := DefaultConfig()
	cfg.MSHRs, cfg.BusOccupancy = 1, 0
	h := New(cfg) // the smallest valid file
	if a, b := h.Data(0x1000, 8, 0, false, cache.OwnerApp), h.Data(0x2000, 8, 0, false, cache.OwnerApp); b <= a {
		t.Errorf("second miss on a one-MSHR file ready at %d, not after the first (%d)", b, a)
	}
}

// FuzzMemFillMatchesReference drives New's hierarchy and the reference in
// ref_test.go (the slice-based MSHR file and the straddle-loop Data path)
// through the same random Data, Fetch and InjectBusTraffic calls, with
// cycles that jump backwards as well as forwards, 1-16 MSHRs, a bus
// occupancy of 0 included, prefetch and TLBs on and off, and lines dropped
// from the caches while their fills are in flight. After every
// call the returned cycle, DRAMAccesses, busFree, prefetches and Stats must
// be equal.
func FuzzMemFillMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, mshrs := range []byte{0, 3, 7, 15} {
		for _, opts := range []byte{0, 1, 2, 3, 4, 7} {
			data := make([]byte, 4+4*300)
			rng.Read(data)
			data[0], data[1] = mshrs, opts
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := DefaultConfig()
		// Small caches, so misses reach the MSHR file often and lines leave
		// the L2 while their fills are still in flight.
		cfg.L1I.Size, cfg.L1D.Size, cfg.L2.Size = 1<<10, 1<<10, 2<<10
		cfg.MSHRs = 1 + int(data[0]%16)
		cfg.BusOccupancy = []int{0, 1, 7, 40}[data[1]>>2%4]
		cfg.MemLatency = []int{0, 30, 300}[data[3]%3]
		cfg.Prefetch = data[1]&1 != 0
		if data[1]&2 != 0 {
			cfg = cfg.WithTLB()
		}
		h, ref := New(cfg), newRef(cfg)
		now, last := uint64(data[2])*100, uint64(0)
		for k := 4; k+3 < len(data); k += 4 {
			op, a, b, d := data[k], data[k+1], data[k+2], data[k+3]
			// Addresses over 16 KB: enough lines to thrash the small caches
			// and revisit lines while their fills are still in flight.
			addr := uint64(a&63)<<8 | uint64(b)
			// Mostly forward in small steps, sometimes back by up to a DRAM
			// latency.
			if d < 32 && now >= 300 {
				now -= uint64(d) * 9
			} else {
				now += uint64(d) / 16
			}
			owner := cache.Owner(op >> 7)
			var got, want uint64
			switch op % 8 {
			case 0, 1, 2, 3, 4:
				size, write := int(op>>3%16)*5-4, op%8 >= 3
				got = h.Data(addr, size, now, write, owner)
				want = ref.Data(addr, size, now, write, owner)
			case 5, 6:
				got, want = h.Fetch(addr, now, owner), ref.Fetch(addr, now, owner)
			case 7:
				switch sub := op >> 3 % 4; sub {
				case 0, 1:
					h.InjectBusTraffic(int(b%4), now)
					ref.InjectBusTraffic(int(b%4), now)
				case 2, 3:
					// Drop the last line accessed (or everything) and ask
					// for it again: its fill may still be in flight, and the
					// new miss must coalesce with it.
					for _, c := range []*cache.Cache{h.l1d, h.l2, ref.l1d, ref.l2} {
						if sub == 2 {
							c.Invalidate(last)
						} else {
							c.InvalidateAll()
						}
					}
					got = h.Data(last, 8, now, false, owner)
					want = ref.Data(last, 8, now, false, owner)
				}
			}
			last = addr
			if got != want || h.DRAMAccesses() != ref.dram || h.busFree != ref.busFree || h.Prefetches() != ref.prefetches {
				t.Fatalf("call %d (op %d, addr %#x, now %d) under %+v: ready %d dram %d bus %d prefetches %d; reference %d %d %d %d",
					k/4-1, op%8, addr, now, cfg, got, h.DRAMAccesses(), h.busFree, h.Prefetches(), want, ref.dram, ref.busFree, ref.prefetches)
			}
			if h.Stats() != ref.Stats() {
				t.Fatalf("call %d: stats %+v, reference %+v", k/4-1, h.Stats(), ref.Stats())
			}
			if h.n != len(ref.inflight) {
				t.Fatalf("call %d: %d fills in flight, reference %d", k/4-1, h.n, len(ref.inflight))
			}
		}
	})
}
