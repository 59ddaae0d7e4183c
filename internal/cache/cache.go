// Package cache implements the set-associative cache model used for the L1
// instruction, L1 data, and unified L2 caches: LRU replacement, write-back
// write-allocate policy, per-line owner tagging (application vs OS), and the
// pollution-eviction primitive the predictor uses to model OS-induced
// displacement of application working sets (paper §4.5).
package cache

import (
	"fmt"
	"math/rand"
)

// Owner tags who filled a cache line. The accelerated simulator uses the tag
// to find application-owned victims when injecting predicted OS pollution.
type Owner uint8

const (
	OwnerApp Owner = iota
	OwnerOS
)

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int // total bytes
	Assoc      int // ways
	BlockSize  int // bytes per line
	HitLatency int // cycles
}

// Stats counts accesses and misses, split by the owner performing them.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	OSAccesses  uint64
	OSMisses    uint64
	Writebacks  uint64
	Evictions   uint64
	PollutionEv uint64 // lines displaced by injected pollution
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Sub returns s - o component-wise; used to attribute deltas to an interval.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses - o.Accesses, Misses: s.Misses - o.Misses,
		OSAccesses: s.OSAccesses - o.OSAccesses, OSMisses: s.OSMisses - o.OSMisses,
		Writebacks: s.Writebacks - o.Writebacks, Evictions: s.Evictions - o.Evictions,
		PollutionEv: s.PollutionEv - o.PollutionEv,
	}
}

// Add returns s + o component-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses + o.Accesses, Misses: s.Misses + o.Misses,
		OSAccesses: s.OSAccesses + o.OSAccesses, OSMisses: s.OSMisses + o.OSMisses,
		Writebacks: s.Writebacks + o.Writebacks, Evictions: s.Evictions + o.Evictions,
		PollutionEv: s.PollutionEv + o.PollutionEv,
	}
}

// Line state is one uint64 word per way: the block number in the low bits
// and the valid, dirty and OS-owner flags in bits 61–63. A block number
// (address >> log2 BlockSize, BlockSize >= 8) never reaches bit 61, and a
// valid line always has wayValid set, so the word 0 means an invalid way.
//
// Each set's ways are kept in recency order: way 0 is the most recently used
// line, valid ways come before invalid ones, and the last way is the LRU
// victim. This is exactly true LRU — the victim is the first invalid way,
// else the least recently used line — with no per-line stamps, and an
// 8-way set is one 64-byte host cache line.
const (
	wayOS    = 1 << 61 // owner bit: set = OwnerOS, clear = OwnerApp
	wayDirty = 1 << 62
	wayValid = 1 << 63
	wayFlags = wayValid | wayDirty | wayOS
)

// Cache is a single set-associative cache level.
type Cache struct {
	cfg      Config
	ways     []uint64 // set*assoc + recency rank; 0 = invalid
	assoc    int
	numSets  int
	blkShift uint
	setMask  uint64
	stamp    uint64 // counts accesses and fills; numbers pollution placeholder lines
	stats    Stats
}

func ownerFlag(o Owner) uint64 {
	if o == OwnerOS {
		return wayOS
	}
	return 0
}

// New builds a cache from cfg. BlockSize must be a power of two of at least
// 8 bytes, and Size, Assoc and BlockSize must describe a power-of-two number
// of sets.
func New(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic(fmt.Sprintf("cache %q: invalid config %+v", cfg.Name, cfg))
	}
	if cfg.BlockSize < 8 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic(fmt.Sprintf("cache %q: block size %d not a power of two >= 8", cfg.Name, cfg.BlockSize))
	}
	numSets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %q: sets=%d not a power of two", cfg.Name, numSets))
	}
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, numSets: numSets, setMask: uint64(numSets - 1)}
	for s := 1; s < cfg.BlockSize; s <<= 1 {
		c.blkShift++
	}
	c.ways = make([]uint64, numSets*cfg.Assoc)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.blkShift << c.blkShift }

// set returns the ways of set number s, most recently used first.
func (c *Cache) set(s int) []uint64 {
	base := s * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// lookup returns addr's set, its block number and the line's rank within the
// set (-1 when absent).
func (c *Cache) lookup(addr uint64) (set []uint64, blk uint64, rank int) {
	blk = addr >> c.blkShift
	set = c.set(int(blk & c.setMask))
	key := blk | wayValid
	for i, w := range set {
		if w&^(wayDirty|wayOS) == key {
			return set, blk, i
		}
	}
	return set, blk, -1
}

// promote moves the line at rank i to way 0 as word w, shifting the more
// recent lines down one rank. A plain loop: copy would call memmove, which
// costs more than the handful of words it moves.
func promote(set []uint64, i int, w uint64) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = w
}

// fill installs word w as the most recent line of set, displacing the LRU
// line when the set is full, and reports the victim. Invalid ways trail the
// valid ones, so shifting the whole set consumes the first invalid way.
func (c *Cache) fill(set []uint64, w uint64) (res AccessResult) {
	last := len(set) - 1
	if v := set[last]; v != 0 {
		res = AccessResult{Evicted: true, EvictedDirty: v&wayDirty != 0, EvictedAddr: (v &^ wayFlags) << c.blkShift}
	}
	promote(set, last, w)
	return res
}

// evicted counts a demand-style fill's victim: an eviction, and a writeback
// when dirty.
func (c *Cache) evicted(res AccessResult) {
	if res.Evicted {
		c.stats.Evictions++
		if res.EvictedDirty {
			c.stats.Writebacks++
		}
	}
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced by the fill
	EvictedDirty bool   // ... and it was dirty (writeback to next level)
	EvictedAddr  uint64 // line address of the victim
}

// Access looks up addr, fills on miss (LRU victim), and returns the outcome.
// isWrite marks the line dirty; owner tags who performed the access; words
// is the number of word-granularity references the call represents (a 64B
// streaming touch is 8 word accesses but at most one miss), keeping miss
// *rates* comparable to per-reference statistics.
func (c *Cache) Access(addr uint64, words int, isWrite bool, owner Owner) AccessResult {
	if words < 1 {
		words = 1
	}
	c.stamp++
	c.stats.Accesses += uint64(words)
	if owner == OwnerOS {
		c.stats.OSAccesses += uint64(words)
	}
	flags := ownerFlag(owner)
	if isWrite {
		flags |= wayDirty
	}
	set, blk, i := c.lookup(addr)
	if i >= 0 {
		promote(set, i, set[i]&^wayOS|flags)
		return AccessResult{Hit: true}
	}
	c.stats.Misses++
	if owner == OwnerOS {
		c.stats.OSMisses++
	}
	res := c.fill(set, blk|wayValid|flags)
	c.evicted(res)
	return res
}

// Prefetch installs addr's line for owner if it is absent, exactly as a
// demand miss would — same LRU victim, and the displaced line counts as an
// eviction (and a writeback when dirty) — but counts no access or miss. A
// present line is left where it is and reported as a hit.
func (c *Cache) Prefetch(addr uint64, owner Owner) AccessResult {
	set, blk, i := c.lookup(addr)
	if i >= 0 {
		return AccessResult{Hit: true}
	}
	c.stamp++
	res := c.fill(set, blk|wayValid|ownerFlag(owner))
	c.evicted(res)
	return res
}

// Probe reports whether addr is present without disturbing LRU state or
// counters. Used by tests and by the warmup checker.
func (c *Cache) Probe(addr uint64) bool {
	_, _, i := c.lookup(addr)
	return i >= 0
}

// InvalidateAll drops every line (TLB shootdown / flush semantics).
func (c *Cache) InvalidateAll() { clear(c.ways) }

// Invalidate drops addr's line if present, returning whether it was dirty.
// The less recent lines move up one rank, keeping invalid ways last.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, _, i := c.lookup(addr)
	if i < 0 {
		return false, false
	}
	dirty = set[i]&wayDirty != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	return true, dirty
}

// Touch performs an uncounted fill of addr's line: a lookup that, on miss,
// installs the line over the LRU victim (preferring invalid ways) without
// perturbing the access/miss statistics. The pollution injector uses it to
// replay a fast-forwarded OS service's working set: the service's phantom
// lines compete for capacity like the real lines would have, but the
// predicted miss counts — which are accounted separately — are not
// double-counted.
func (c *Cache) Touch(addr uint64) {
	c.stamp++
	set, blk, i := c.lookup(addr)
	if i >= 0 {
		promote(set, i, set[i]|wayOS)
		return
	}
	if c.fill(set, blk|wayValid|wayOS).Evicted {
		c.stats.PollutionEv++
	}
}

// TouchRun is n Touch calls in order on consecutive lines: base, base plus
// one block, and so on. Each set's touches are distinct lines, so once a set
// has seen Assoc of them it holds exactly its last Assoc touched lines, and
// every later touch misses and displaces a valid line. The touches that fill
// each set's ways first (the first Assoc*sets of the run) go through Touch;
// the rest are applied as one shift per set.
func (c *Cache) TouchRun(base uint64, n int) {
	head := min(n, c.assoc*c.numSets)
	first := base >> c.blkShift
	for i := 0; i < head; i++ {
		c.Touch((first + uint64(i)) << c.blkShift)
	}
	tail := n - head
	if tail <= 0 {
		return
	}
	c.stamp += uint64(tail)
	c.stats.PollutionEv += uint64(tail)
	// Touch head+j+k*sets lands in the same set for every k; the set keeps
	// its last min(m, assoc) touches, most recent first, above what it held.
	for j := 0; j < min(tail, c.numSets); j++ {
		m := tail / c.numSets
		if j < tail%c.numSets {
			m++
		}
		blk := first + uint64(head+j+(m-1)*c.numSets) // the set's last touch
		set := c.set(int(blk & c.setMask))
		k := min(m, c.assoc)
		copy(set[k:], set[:c.assoc-k])
		for r := 0; r < k; r++ {
			set[r] = (blk - uint64(r*c.numSets)) | wayValid | wayOS
		}
	}
}

// InjectPollution models the working-set displacement an OS service would
// have caused had it been simulated in detail (paper §4.5): it performs n
// victim selections over uniformly random sets, assuming OS pollution is
// uniformly distributed across sets. In each chosen set the victim
// preference order follows the paper: an invalid line first, then the valid
// least-recently-used line (regardless of owner — stale lines the OS itself
// left behind are displaced like any other), progressing to more recently
// used lines on later selections of the same set. The victim way is refilled
// with an OS-owned placeholder line so that subsequent accesses to the
// displaced data miss, as they would have after real OS execution.
func (c *Cache) InjectPollution(n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		c.stamp++
		set := c.set(rng.Intn(c.numSets))
		// Placeholder block number outside any allocated region; unique per
		// injection so placeholder lines never alias real data.
		phantom := (uint64(0xF0000000_00000000) | c.stamp<<c.blkShift) >> c.blkShift
		if c.fill(set, phantom|wayValid|wayOS).Evicted {
			c.stats.PollutionEv++
		}
	}
}

// OwnedLines counts valid lines per owner; used by tests and diagnostics.
func (c *Cache) OwnedLines() (app, os int) {
	for _, w := range c.ways {
		switch {
		case w == 0:
		case w&wayOS != 0:
			os++
		default:
			app++
		}
	}
	return
}
