package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	return New(Config{Name: "t", Size: 4096, Assoc: 4, BlockSize: 64, HitLatency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := testCache()
	if r := c.Access(0x1000, 1, false, OwnerApp); r.Hit {
		t.Fatal("cold access should miss")
	}
	if r := c.Access(0x1000, 1, false, OwnerApp); !r.Hit {
		t.Fatal("second access should hit")
	}
	if r := c.Access(0x1030, 1, false, OwnerApp); !r.Hit {
		t.Fatal("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWordCounting(t *testing.T) {
	c := testCache()
	c.Access(0x2000, 8, false, OwnerApp) // one 64B streaming touch
	st := c.Stats()
	if st.Accesses != 8 || st.Misses != 1 {
		t.Fatalf("want 8 accesses / 1 miss, got %+v", st)
	}
	if mr := st.MissRate(); mr != 0.125 {
		t.Fatalf("miss rate = %v", mr)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := testCache() // 16 sets, 4 ways
	// Five lines mapping to the same set (stride = sets*block = 1024).
	base := uint64(0x8000)
	for i := uint64(0); i < 4; i++ {
		c.Access(base+i*1024, 1, false, OwnerApp)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(base, 1, false, OwnerApp)
	r := c.Access(base+4*1024, 1, false, OwnerApp) // evicts line 1
	if !r.Evicted || r.EvictedAddr != base+1024 {
		t.Fatalf("expected eviction of %#x, got %+v", base+1024, r)
	}
	if !c.Probe(base) {
		t.Error("recently used line evicted")
	}
	if c.Probe(base + 1024) {
		t.Error("LRU line still present")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := testCache()
	base := uint64(0x8000)
	c.Access(base, 1, true, OwnerApp) // dirty
	for i := uint64(1); i <= 4; i++ {
		c.Access(base+i*1024, 1, false, OwnerApp)
	}
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("want 1 writeback, got %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache()
	c.Access(0x40, 1, true, OwnerOS)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v, %v)", present, dirty)
	}
	if c.Probe(0x40) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestOwnerTracking(t *testing.T) {
	c := testCache()
	c.Access(0x100, 1, false, OwnerApp)
	c.Access(0x200, 1, false, OwnerOS)
	app, os := c.OwnedLines()
	if app != 1 || os != 1 {
		t.Fatalf("owned = (%d, %d)", app, os)
	}
	// Re-access by the other owner re-tags.
	c.Access(0x100, 1, false, OwnerOS)
	app, os = c.OwnedLines()
	if app != 0 || os != 2 {
		t.Fatalf("after re-tag owned = (%d, %d)", app, os)
	}
}

func TestInjectPollutionDisplacesApp(t *testing.T) {
	c := testCache()
	// Fill the whole cache with app lines.
	for i := uint64(0); i < 64; i++ {
		c.Access(0x10000+i*64, 1, false, OwnerApp)
	}
	rng := rand.New(rand.NewSource(1))
	c.InjectPollution(64, rng)
	app, os := c.OwnedLines()
	if os == 0 {
		t.Fatal("pollution installed no OS lines")
	}
	if app == 64 {
		t.Fatal("pollution displaced nothing")
	}
	if ev := c.Stats().PollutionEv; ev == 0 {
		t.Fatal("pollution eviction counter not incremented")
	}
}

// TestInjectPollutionPrefersInvalid checks that pollution consumes empty
// ways before displacing live lines (paper §4.5's victim order).
func TestInjectPollutionPrefersInvalid(t *testing.T) {
	c := testCache()
	c.Access(0x40, 1, false, OwnerApp) // one line in one set
	rng := rand.New(rand.NewSource(2))
	c.InjectPollution(48, rng) // fewer injections than empty ways
	if !c.Probe(0x40) {
		// With 63 invalid ways and 48 injections, displacing the only live
		// line means invalid ways were not preferred.
		t.Error("live line displaced while invalid ways remained")
	}
}

// TestPollutionPhantomsDontAlias checks pollution placeholder lines never
// match real addresses.
func TestPollutionPhantomsDontAlias(t *testing.T) {
	c := testCache()
	rng := rand.New(rand.NewSource(3))
	c.InjectPollution(256, rng)
	misses := c.Stats().Misses
	for i := uint64(0); i < 64; i++ {
		c.Access(0x20000+i*64, 1, false, OwnerApp)
	}
	if got := c.Stats().Misses - misses; got != 64 {
		t.Errorf("fresh lines after pollution: want 64 misses, got %d", got)
	}
}

// TestCacheInclusionProperty property-checks a basic invariant: immediately
// re-accessing any address hits, regardless of history.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCache()
		for i := 0; i < int(ops)+10; i++ {
			addr := uint64(rng.Intn(1 << 20))
			c.Access(addr, 1, rng.Intn(2) == 0, OwnerApp)
			if r := c.Access(addr, 1, false, OwnerApp); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStatsConservation property-checks counter consistency: misses never
// exceed accesses; evictions never exceed misses; valid lines <= capacity.
func TestStatsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCache()
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(64<<10))&^7, 1+rng.Intn(8), rng.Intn(3) == 0, Owner(rng.Intn(2)))
		}
		st := c.Stats()
		app, os := c.OwnedLines()
		return st.Misses <= st.Accesses &&
			st.Evictions <= st.Misses &&
			st.Writebacks <= st.Evictions &&
			app+os <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		why string
		cfg Config
	}{
		{"non-power-of-two set count", Config{Name: "bad", Size: 3000, Assoc: 3, BlockSize: 64}},
		// 3072/48 = 64 sets pass the set check, but a 48 B block would be
		// modelled as a 64 B one.
		{"non-power-of-two block size", Config{Name: "bad", Size: 3072, Assoc: 1, BlockSize: 48}},
		{"block size below 8 bytes", Config{Name: "bad", Size: 256, Assoc: 1, BlockSize: 4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic: %+v", tc.why, tc.cfg)
				}
			}()
			New(tc.cfg)
		}()
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 4, Writebacks: 1, Evictions: 2}
	b := Stats{Accesses: 3, Misses: 1, Writebacks: 0, Evictions: 1}
	d := a.Sub(b)
	if d.Accesses != 7 || d.Misses != 3 || d.Evictions != 1 {
		t.Errorf("sub = %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Errorf("add(sub) != original: %+v", s)
	}
}

// FuzzCacheMatchesReference drives Cache and the stamp-LRU reference model
// (ref_test.go) through the same operation sequence and requires identical
// return values, Stats and OwnedLines after every operation. The first four
// bytes pick the geometry — associativity 1–16, 1–64 sets, 8 B–4 KB blocks —
// and the pollution seed. Every following byte triple is one operation, its
// owner and word count, and a line drawn from 256 candidates, so small
// geometries thrash and large ones fill gradually.
func FuzzCacheMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, assoc := range []byte{0, 1, 2, 3, 4} {
		for _, sets := range []byte{0, 3, 6} {
			data := make([]byte, 4+3*2000)
			rng.Read(data)
			data[0], data[1] = assoc, sets
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{Name: "fuzz", Assoc: 1 << (data[0] % 5), BlockSize: 8 << (data[2] % 10)}
		cfg.Size = cfg.Assoc * cfg.BlockSize << (data[1] % 7)
		c, ref := New(cfg), newRef(cfg)
		rc, rr := rand.New(rand.NewSource(int64(data[3]))), rand.New(rand.NewSource(int64(data[3])))
		for k := 4; k+2 < len(data); k += 3 {
			op, aux, line := data[k]%16, data[k+1], data[k+2]
			addr := uint64(line)<<c.blkShift | uint64(aux)%uint64(cfg.BlockSize)
			owner, n := Owner(aux%2), int(aux/2)%9
			var got, want any
			switch op {
			case 0, 1, 2, 3, 4, 5:
				write := op%2 == 1
				got, want = c.Access(addr, n, write, owner), ref.Access(addr, n, write, owner)
			case 6, 7:
				c.Touch(addr)
				ref.Touch(addr)
			case 8:
				got, want = c.Probe(addr), ref.Probe(addr)
			case 9, 10:
				p, d := c.Invalidate(addr)
				rp, rd := ref.Invalidate(addr)
				got, want = [2]bool{p, d}, [2]bool{rp, rd}
			case 11, 12:
				c.InjectPollution(n, rc)
				ref.InjectPollution(n, rr)
			case 13, 14:
				got, want = c.Prefetch(addr, owner), ref.Prefetch(addr, owner)
			case 15:
				c.InvalidateAll()
				ref.InvalidateAll()
			}
			if got != want {
				t.Fatalf("op %d (%d) on %#x under %+v: got %+v, reference %+v", k/3-1, op, addr, cfg, got, want)
			}
			if c.Stats() != ref.Stats() {
				t.Fatalf("op %d (%d): stats %+v, reference %+v", k/3-1, op, c.Stats(), ref.Stats())
			}
			app, os := c.OwnedLines()
			if rapp, ros := ref.OwnedLines(); app != rapp || os != ros {
				t.Fatalf("op %d (%d): owned (%d, %d), reference (%d, %d)", k/3-1, op, app, os, rapp, ros)
			}
		}
		for s := 0; s < c.numSets; s++ {
			set := c.set(s)
			for i := 1; i < len(set); i++ {
				if set[i-1] == 0 && set[i] != 0 {
					t.Fatalf("set %d has a valid way after an invalid one: %x", s, set)
				}
			}
		}
	})
}

// FuzzTouchRunMatchesTouch checks TouchRun against the Touch loop it stands
// for. Two twin caches start from the same random mix of accesses (dirty
// and clean, both owners) and invalidations; then one takes TouchRun(base,
// n) and the other n Touch calls on consecutive lines from base. Ways,
// stats and stamp must be equal after every run. Bases are arbitrary (not
// line- or set-aligned) and n reaches four times the capacity.
func FuzzTouchRunMatchesTouch(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, assoc := range []byte{0, 1, 3, 7, 15} {
		for _, sets := range []byte{0, 2, 6} {
			data := make([]byte, 4+5*40)
			rng.Read(data)
			data[0], data[1] = assoc, sets
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{Name: "fuzz", Assoc: 1 + int(data[0]%16), BlockSize: 8 << (data[2] % 4)}
		sets := 1 << (data[1] % 7)
		cfg.Size = cfg.Assoc * cfg.BlockSize * sets
		c, ref := New(cfg), New(cfg)
		capacity := cfg.Assoc * sets
		for k := 4; k+4 < len(data); k += 5 {
			op, a, d := data[k]%4, data[k+1], data[k+3]
			// Lines spread over twice the capacity, so runs revisit lines
			// the accesses left behind; d offsets the base off line and set.
			addr := uint64(int(a)*2*capacity/256*cfg.BlockSize) + uint64(d)
			switch op {
			case 0, 1:
				owner, write := Owner(data[k+2]%2), op == 1
				c.Access(addr, 1, write, owner)
				ref.Access(addr, 1, write, owner)
			case 2:
				c.Invalidate(addr)
				ref.Invalidate(addr)
			case 3:
				n := int(data[k+4]) * 4 * capacity / 255
				c.TouchRun(addr, n)
				for i := 0; i < n; i++ {
					ref.Touch(addr + uint64(i*cfg.BlockSize))
				}
			}
			if !slices.Equal(c.ways, ref.ways) {
				t.Fatalf("op %d (%d) at %#x under %+v: ways\n%x\nTouch loop\n%x", k/5, op, addr, cfg, c.ways, ref.ways)
			}
			if c.Stats() != ref.Stats() || c.stamp != ref.stamp {
				t.Fatalf("op %d (%d): stats %+v stamp %d, Touch loop %+v stamp %d",
					k/5, op, c.Stats(), c.stamp, ref.Stats(), ref.stamp)
			}
		}
	})
}
