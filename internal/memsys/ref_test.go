package memsys

import "fssim/internal/cache"

// refHierarchy is the miss path as it was before the MSHR file became a
// ready-ordered ring and Data gained its one-line fast path: a slice of
// in-flight fills that reap rebuilds on every call, a minimum scan for MSHR
// admission, and the general straddle loop for every data access. The
// methods below are kept verbatim (receiver renamed) as the oracle for
// FuzzMemFillMatchesReference.
type refHierarchy struct {
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	itlb *cache.Cache
	dtlb *cache.Cache

	busFree    uint64
	inflight   []miss
	dram       uint64
	prefetches uint64
}

// newRef builds the reference hierarchy over the fresh caches of a new
// Hierarchy, which it does not otherwise use.
func newRef(cfg Config) *refHierarchy {
	h := New(cfg)
	return &refHierarchy{cfg: cfg, l1i: h.l1i, l1d: h.l1d, l2: h.l2, itlb: h.itlb, dtlb: h.dtlb}
}

func (h *refHierarchy) Stats() Snapshot {
	return Snapshot{L1I: h.l1i.Stats(), L1D: h.l1d.Stats(), L2: h.l2.Stats()}
}

// tlbLookup charges a page-walk latency on a TLB miss and returns the
// translated access start time.
func (h *refHierarchy) tlbLookup(tlb *cache.Cache, addr, now uint64, owner cache.Owner) uint64 {
	if tlb == nil {
		return now
	}
	if res := tlb.Access(addr, 1, false, owner); !res.Hit {
		return now + uint64(h.cfg.WalkLatency)
	}
	return now
}

// memFill models one line fill from DRAM starting no earlier than cycle now:
// MSHR admission, coalescing with an in-flight fill of the same line, bus
// arbitration, and DRAM latency. It returns the cycle the line is available.
func (h *refHierarchy) memFill(lineAddr, now uint64) uint64 {
	// Coalesce with an outstanding fill of the same line.
	h.reap(now)
	for _, m := range h.inflight {
		if m.line == lineAddr {
			return m.ready
		}
	}
	start := now
	// MSHR admission: if all MSHRs busy, wait for the earliest to retire.
	if len(h.inflight) >= h.cfg.MSHRs {
		earliest := h.inflight[0].ready
		for _, m := range h.inflight[1:] {
			if m.ready < earliest {
				earliest = m.ready
			}
		}
		if earliest > start {
			start = earliest
		}
		h.reap(start)
	}
	// Bus arbitration: split-transaction, so the bus is held only for the
	// transfer slot; latency overlaps with other fills.
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	ready := start + uint64(h.cfg.MemLatency)
	h.dram++
	h.inflight = append(h.inflight, miss{line: lineAddr, ready: ready})
	return ready
}

func (h *refHierarchy) reap(now uint64) {
	kept := h.inflight[:0]
	for _, m := range h.inflight {
		if m.ready > now {
			kept = append(kept, m)
		}
	}
	h.inflight = kept
}

// writebackToMem models a dirty L2 eviction: it consumes a bus slot but does
// not delay the requesting access (posted write).
func (h *refHierarchy) writebackToMem(now uint64) {
	start := now
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	h.dram++
}

// accessL2 performs an L2 lookup for one line, filling from memory on a miss,
// and returns the cycle at which the line is available to the L1.
func (h *refHierarchy) accessL2(lineAddr, now uint64, isWrite bool, owner cache.Owner) uint64 {
	res := h.l2.Access(lineAddr, 1, isWrite, owner)
	avail := now + uint64(h.cfg.L2.HitLatency)
	if !res.Hit {
		avail = h.memFill(lineAddr, now+uint64(h.cfg.L2.HitLatency))
		if res.Evicted && res.EvictedDirty {
			h.writebackToMem(now)
		}
		if h.cfg.Prefetch {
			// Next-line prefetch: bring in the following line if absent for
			// the same owner, consuming bus slots (the fill and any dirty
			// victim's writeback) but delaying no one.
			next := lineAddr + uint64(h.cfg.L2.BlockSize)
			if pf := h.l2.Prefetch(next, owner); !pf.Hit {
				h.memFill(next, now+uint64(h.cfg.L2.HitLatency))
				h.prefetches++
				if pf.EvictedDirty {
					h.writebackToMem(now)
				}
			}
		}
	}
	return avail
}

// Data performs a data access of any size at cycle now and returns the cycle
// the data is available. Accesses that straddle line boundaries touch each
// line. Writes are charged to the cache state (write-back, write-allocate)
// but report availability like reads so the store queue can track retirement.
func (h *refHierarchy) Data(addr uint64, size int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	if size <= 0 {
		size = 1
	}
	now = h.tlbLookup(h.dtlb, addr, now, owner)
	bs := uint64(h.cfg.L1D.BlockSize)
	first := h.l1d.LineAddr(addr)
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	avail := now
	remaining := size
	off := int(addr - first)
	for line := first; ; line += bs {
		span := int(bs) - off
		if span > remaining {
			span = remaining
		}
		words := (span + 7) / 8
		a := h.dataLine(line, words, now, isWrite, owner)
		if a > avail {
			avail = a
		}
		remaining -= span
		off = 0
		if line == last {
			break
		}
	}
	return avail
}

func (h *refHierarchy) dataLine(lineAddr uint64, words int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	res := h.l1d.Access(lineAddr, words, isWrite, owner)
	avail := now + uint64(h.cfg.L1D.HitLatency)
	if !res.Hit {
		avail = h.accessL2(lineAddr, now+uint64(h.cfg.L1D.HitLatency), false, owner)
		if res.Evicted && res.EvictedDirty {
			// L1 dirty victim written back into L2 (posted; state change only).
			h.l2.Access(res.EvictedAddr, 1, true, owner)
		}
	}
	return avail
}

// Fetch performs an instruction-fetch access for the line containing pc and
// returns the cycle the fetch group is available.
func (h *refHierarchy) Fetch(pc, now uint64, owner cache.Owner) uint64 {
	now = h.tlbLookup(h.itlb, pc, now, owner)
	line := h.l1i.LineAddr(pc)
	// One access per fetch group; a 64B line holds four 4-wide groups.
	res := h.l1i.Access(line, 4, false, owner)
	if res.Hit {
		return now + uint64(h.cfg.L1I.HitLatency)
	}
	return h.accessL2(line, now+uint64(h.cfg.L1I.HitLatency), false, owner)
}

// InjectBusTraffic models the memory-bus occupancy of a fast-forwarded OS
// service: n line transfers beginning no earlier than cycle from. If the
// implied transfer time extends past the current bus horizon, subsequent
// accesses queue behind it exactly as they would behind the real traffic.
func (h *refHierarchy) InjectBusTraffic(n int, from uint64) {
	if n <= 0 {
		return
	}
	if h.busFree < from {
		h.busFree = from
	}
	h.busFree += uint64(n) * uint64(h.cfg.BusOccupancy)
	h.dram += uint64(n)
}
