package cache

import (
	"fmt"
	"math/rand"
)

// refCache is the stamp-LRU cache model that Cache replaced, kept verbatim
// as a test-only reference: FuzzCacheMatchesReference drives both models
// with the same operations and requires identical results. Its line state is
// three arrays per way slot, and its victim is the first invalid way, else
// the way with the smallest last-touch stamp.

// Line state is kept as a structure of arrays indexed by way slot
// (set*assoc + way): the tag scan — the hottest loop in a detailed run —
// then walks a dense uint64 array (an 8-way set's tags share one hardware
// cache line) instead of striding through 24-byte structs.
const (
	metaValid = 1 << iota
	metaDirty
	metaOS // owner bit: set = OwnerOS, clear = OwnerApp
)

// refCache is a single set-associative cache level.
type refCache struct {
	cfg      Config
	tags     []uint64 // block number per way slot
	lru      []uint64 // last-touch stamp; larger = more recent
	meta     []uint8  // metaValid | metaDirty | metaOS
	assoc    int
	numSets  int
	blkShift uint
	setMask  uint64
	stamp    uint64
	stats    Stats
}

func metaOwner(m uint8) Owner {
	if m&metaOS != 0 {
		return OwnerOS
	}
	return OwnerApp
}

func ownerMeta(o Owner) uint8 {
	if o == OwnerOS {
		return metaOS
	}
	return 0
}

// newRef builds a cache from cfg. Size, Assoc and BlockSize must describe a
// power-of-two number of sets.
func newRef(cfg Config) *refCache {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic(fmt.Sprintf("cache %q: invalid config %+v", cfg.Name, cfg))
	}
	numSets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %q: sets=%d not a power of two", cfg.Name, numSets))
	}
	c := &refCache{cfg: cfg, assoc: cfg.Assoc, numSets: numSets, setMask: uint64(numSets - 1)}
	for s := 1; s < cfg.BlockSize; s <<= 1 {
		c.blkShift++
	}
	c.tags = make([]uint64, numSets*cfg.Assoc)
	c.lru = make([]uint64, numSets*cfg.Assoc)
	c.meta = make([]uint8, numSets*cfg.Assoc)
	return c
}

// Stats returns a snapshot of the counters.
func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blkShift
	return int(blk & c.setMask), blk >> 0 // full block number as tag (set bits redundant but harmless)
}

// Access looks up addr, fills on miss (LRU victim), and returns the outcome.
// isWrite marks the line dirty; owner tags who performed the access; words
// is the number of word-granularity references the call represents (a 64B
// streaming touch is 8 word accesses but at most one miss), keeping miss
// *rates* comparable to per-reference statistics.
func (c *refCache) Access(addr uint64, words int, isWrite bool, owner Owner) AccessResult {
	if words < 1 {
		words = 1
	}
	c.stamp++
	c.stats.Accesses += uint64(words)
	if owner == OwnerOS {
		c.stats.OSAccesses += uint64(words)
	}
	set, tag := c.index(addr)
	base := set * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i, t := range tags {
		if t == tag && c.meta[base+i]&metaValid != 0 {
			j := base + i
			c.lru[j] = c.stamp
			m := c.meta[j]&^metaOS | ownerMeta(owner)
			if isWrite {
				m |= metaDirty
			}
			c.meta[j] = m
			return AccessResult{Hit: true}
		}
	}
	// Miss: fill into invalid way or LRU victim. One fused pass: the first
	// invalid way wins outright; otherwise the earliest minimum-lru way does —
	// identical victim choice to separate invalid-then-LRU scans.
	c.stats.Misses++
	if owner == OwnerOS {
		c.stats.OSMisses++
	}
	lru := c.lru[base : base+c.assoc]
	victim, filled := 0, false
	for i := range tags {
		if c.meta[base+i]&metaValid == 0 {
			victim = i
			filled = true
			break
		}
		if lru[i] < lru[victim] {
			victim = i
		}
	}
	var res AccessResult
	j := base + victim
	if !filled {
		res.Evicted = true
		res.EvictedDirty = c.meta[j]&metaDirty != 0
		res.EvictedAddr = tags[victim] << c.blkShift
		c.stats.Evictions++
		if res.EvictedDirty {
			c.stats.Writebacks++
		}
	}
	tags[victim] = tag
	lru[victim] = c.stamp
	m := metaValid | ownerMeta(owner)
	if isWrite {
		m |= metaDirty
	}
	c.meta[j] = m
	return res
}

// Probe reports whether addr is present without disturbing LRU state or
// counters. Used by tests and by the warmup checker.
func (c *refCache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag && c.meta[base+i]&metaValid != 0 {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (TLB shootdown / flush semantics).
func (c *refCache) InvalidateAll() {
	clear(c.tags)
	clear(c.lru)
	clear(c.meta)
}

// Invalidate drops addr's line if present, returning whether it was dirty.
func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	base := set * c.assoc
	for i, t := range c.tags[base : base+c.assoc] {
		j := base + i
		if t == tag && c.meta[j]&metaValid != 0 {
			d := c.meta[j]&metaDirty != 0
			c.tags[j], c.lru[j], c.meta[j] = 0, 0, 0
			return true, d
		}
	}
	return false, false
}

// Touch performs an uncounted fill of addr's line: a lookup that, on miss,
// installs the line over the LRU victim (preferring invalid ways) without
// perturbing the access/miss statistics. The pollution injector uses it to
// replay a fast-forwarded OS service's working set: the service's phantom
// lines compete for capacity like the real lines would have, but the
// predicted miss counts — which are accounted separately — are not
// double-counted.
func (c *refCache) Touch(addr uint64) {
	c.stamp++
	set, tag := c.index(addr)
	base := set * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i, t := range tags {
		if t == tag && c.meta[base+i]&metaValid != 0 {
			c.lru[base+i] = c.stamp
			c.meta[base+i] |= metaOS
			return
		}
	}
	lru := c.lru[base : base+c.assoc]
	victim, filled := 0, false
	for i := range tags {
		if c.meta[base+i]&metaValid == 0 {
			victim = i
			filled = true
			break
		}
		if lru[i] < lru[victim] {
			victim = i
		}
	}
	if !filled {
		c.stats.PollutionEv++
	}
	tags[victim] = tag
	lru[victim] = c.stamp
	c.meta[base+victim] = metaValid | metaOS
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
func (c *refCache) InjectPollution(n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		c.stamp++
		set := rng.Intn(c.numSets)
		base := set * c.assoc
		lru := c.lru[base : base+c.assoc]
		victim, filled := 0, false
		// Invalid line first: pollution then consumes capacity without
		// displacing live data; otherwise the least-recently-used line, any
		// owner — stale lines the OS itself left behind are displaced like
		// any other.
		for w := range lru {
			if c.meta[base+w]&metaValid == 0 {
				victim = w
				filled = true
				break
			}
			if lru[w] < lru[victim] {
				victim = w
			}
		}
		if !filled {
			c.stats.PollutionEv++
		}
		// Placeholder tag outside any allocated region; unique per injection
		// so placeholder lines never alias real data.
		phantom := (uint64(0xF0000000_00000000) | c.stamp<<c.blkShift) >> c.blkShift
		c.tags[base+victim] = phantom
		lru[victim] = c.stamp
		c.meta[base+victim] = metaValid | metaOS
	}
}

// OwnedLines counts valid lines per owner; used by tests and diagnostics.
func (c *refCache) OwnedLines() (app, os int) {
	for _, m := range c.meta {
		if m&metaValid == 0 {
			continue
		}
		if metaOwner(m) == OwnerApp {
			app++
		} else {
			os++
		}
	}
	return
}

// Prefetch is Cache.Prefetch in the stamp-LRU model: a present line is left
// alone, an absent one is filled like a demand miss whose access and miss
// are then taken back out of the counters.
func (c *refCache) Prefetch(addr uint64, owner Owner) AccessResult {
	if c.Probe(addr) {
		return AccessResult{Hit: true}
	}
	st := c.stats
	res := c.Access(addr, 1, false, owner)
	c.stats.Accesses, c.stats.OSAccesses = st.Accesses, st.OSAccesses
	c.stats.Misses, c.stats.OSMisses = st.Misses, st.OSMisses
	return res
}
