package cache

import (
	"testing"
	"testing/quick"

	"prophet/internal/mem"
)

func small(policy Policy) Config {
	return Config{
		Name:       "test",
		SizeBytes:  4 * 4 * mem.LineBytes, // 4 sets x 4 ways
		Ways:       4,
		HitLatency: 2,
		MSHRs:      8,
		Policy:     policy,
	}
}

func TestConfigValidate(t *testing.T) {
	good := small(LRU)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.SizeBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero size accepted")
	}
	bad = good
	bad.SizeBytes = 3 * 4 * mem.LineBytes // 3 sets: not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	bad = good
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 16}
	if got := cfg.Sets(); got != 2048 {
		t.Fatalf("2MB/16-way sets = %d, want 2048", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(small(LRU))
	l := mem.Line(100)
	if res := c.Access(l, 1, false); res.Hit {
		t.Fatal("cold access hit")
	}
	c.Insert(l, 1, 10, false, false, 0)
	res := c.Access(l, 2, false)
	if !res.Hit {
		t.Fatal("access after insert missed")
	}
	if res.Ready != 10 {
		t.Fatalf("Ready = %d, want 10 (fill in flight)", res.Ready)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(small(LRU))
	// Lines mapping to set 0 in a 4-set cache: multiples of 4.
	lines := []mem.Line{0, 4, 8, 12}
	for i, l := range lines {
		c.Access(l, uint64(i), false)
		c.Insert(l, uint64(i), uint64(i), false, false, 0)
	}
	// Touch line 0 so line 4 becomes LRU.
	c.Access(0, 100, false)
	ev := c.Insert(16, 101, 101, false, false, 0)
	if !ev.Valid() || ev.Line() != 4 {
		t.Fatalf("evicted %+v, want line 4", ev)
	}
}

func TestPLRUVictimIsNotMRU(t *testing.T) {
	c := New(small(PLRU))
	lines := []mem.Line{0, 4, 8, 12}
	for i, l := range lines {
		c.Insert(l, uint64(i), uint64(i), false, false, 0)
	}
	c.Access(12, 50, false) // 12 is MRU
	ev := c.Insert(16, 51, 51, false, false, 0)
	if !ev.Valid() {
		t.Fatal("expected an eviction from a full set")
	}
	if ev.Line() == 12 {
		t.Fatal("PLRU evicted the MRU line")
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := New(small(SRRIP))
	lines := []mem.Line{0, 4, 8, 12}
	for i, l := range lines {
		c.Insert(l, uint64(i), uint64(i), false, false, 0)
	}
	// Promote 0 and 4 via hits; victim should be 8 or 12.
	c.Access(0, 20, false)
	c.Access(4, 21, false)
	ev := c.Insert(16, 22, 22, false, false, 0)
	if !ev.Valid() || (ev.Line() != 8 && ev.Line() != 12) {
		t.Fatalf("SRRIP evicted %+v, want line 8 or 12", ev)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(small(LRU))
	c.Insert(0, 0, 0, false, false, 0)
	c.Access(0, 1, true) // dirty it
	for i, l := range []mem.Line{4, 8, 12} {
		c.Insert(l, uint64(i+2), uint64(i+2), false, false, 0)
	}
	ev := c.Insert(16, 10, 10, false, false, 0)
	if !ev.Valid() || ev.Line() != 0 || !ev.Dirty() {
		t.Fatalf("eviction %+v, want dirty line 0", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestPrefetchUsefulBookkeeping(t *testing.T) {
	c := New(small(LRU))
	c.Insert(5, 0, 0, false, true, 0x400100)
	res := c.Access(5, 1, false)
	if !res.Hit || !res.WasPrefetch || res.Trigger != 0x400100 {
		t.Fatalf("first demand touch: %+v", res)
	}
	// Second touch must not report prefetch again.
	res = c.Access(5, 2, false)
	if !res.Hit || res.WasPrefetch {
		t.Fatalf("second touch reported WasPrefetch: %+v", res)
	}
}

func TestPrefetchEvictedUnused(t *testing.T) {
	c := New(small(LRU))
	c.Insert(0, 0, 0, false, true, 0x400200)
	for i, l := range []mem.Line{4, 8, 12} {
		c.Insert(l, uint64(i+1), uint64(i+1), false, false, 0)
	}
	ev := c.Insert(16, 10, 10, false, false, 0)
	if !ev.Valid() || ev.Line() != 0 || !ev.Prefetch() || ev.Trigger() != 0x400200 {
		t.Fatalf("eviction %+v, want unused prefetch of line 0", ev)
	}
}

// TestTriggerArrayOnFirstPrefetch: demand fills, hits, evictions and a
// Reset leave the trigger array unallocated; the first prefetch fill
// allocates it, and its trigger reaches the hit that consumes it.
func TestTriggerArrayOnFirstPrefetch(t *testing.T) {
	c := New(small(LRU))
	for i := range 32 {
		c.Insert(mem.Line(i), uint64(i), uint64(i), i%3 == 0, false, 0)
		c.Access(mem.Line(i/2), uint64(i), false)
	}
	c.Reset()
	if c.trigger != nil {
		t.Fatal("demand traffic allocated the trigger array")
	}
	c.Insert(7, 40, 40, false, true, 0x400300)
	if len(c.trigger) != len(c.lines) {
		t.Fatalf("prefetch fill: %d triggers for %d ways", len(c.trigger), len(c.lines))
	}
	if res := c.Access(7, 41, false); !res.WasPrefetch || res.Trigger != 0x400300 {
		t.Fatalf("prefetched line's first hit: %+v", res)
	}
}

func TestInsertRefillDoesNotDuplicate(t *testing.T) {
	c := New(small(LRU))
	c.Insert(0, 0, 100, false, false, 0)
	ev := c.Insert(0, 1, 50, true, false, 0)
	if ev.Valid() {
		t.Fatalf("refill evicted %+v", ev)
	}
	if c.occupancy() != 1 {
		t.Fatalf("occupancy = %d after refill, want 1", c.occupancy())
	}
	res := c.Access(0, 2, false)
	if res.Ready != 50 {
		t.Fatalf("refill should keep earlier ready cycle, got %d", res.Ready)
	}
}

func TestSetDemandWaysShrinkEvicts(t *testing.T) {
	c := New(small(LRU))
	for s := 0; s < 4; s++ {
		for w := 0; w < 4; w++ {
			c.Insert(mem.Line(s+4*w), uint64(w), uint64(w), false, false, 0)
		}
	}
	if c.occupancy() != 16 {
		t.Fatalf("occupancy = %d, want 16", c.occupancy())
	}
	evicted := 0
	c.SetDemandWays(2, func(Eviction) { evicted++ })
	if evicted != 8 {
		t.Fatalf("shrinking 4->2 ways evicted %d lines, want 8", evicted)
	}
	if c.occupancy() != 8 {
		t.Fatalf("occupancy after shrink = %d, want 8", c.occupancy())
	}
	if c.DemandWays() != 2 {
		t.Fatalf("DemandWays = %d, want 2", c.DemandWays())
	}
	// Growing back exposes empty ways without resurrecting lines.
	c.SetDemandWays(4, func(ev Eviction) { t.Fatalf("growing evicted %v", ev) })
	if c.occupancy() != 8 {
		t.Fatalf("occupancy after grow = %d, want 8", c.occupancy())
	}
}

func TestSetDemandWaysClamps(t *testing.T) {
	c := New(small(LRU))
	c.SetDemandWays(-3, nil)
	if c.DemandWays() != 0 {
		t.Fatalf("DemandWays = %d, want 0", c.DemandWays())
	}
	c.SetDemandWays(99, nil)
	if c.DemandWays() != 4 {
		t.Fatalf("DemandWays = %d, want 4 (config max)", c.DemandWays())
	}
}

func TestLookupDoesNotChangeState(t *testing.T) {
	c := New(small(LRU))
	c.Insert(0, 0, 7, false, true, 1)
	if _, hit := c.Lookup(0); !hit {
		t.Fatal("Lookup missed inserted line")
	}
	// Prefetch bit must survive Lookup (unlike Access).
	res := c.Access(0, 1, false)
	if !res.WasPrefetch {
		t.Fatal("Lookup consumed the prefetch bit")
	}
}

// Property: after arbitrary operations the cache never holds duplicate tags
// and occupancy never exceeds capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mem.NewPRNG(seed)
		c := New(small(Policy(seed % 3)))
		for i := 0; i < 2000; i++ {
			l := mem.Line(rng.Intn(64))
			switch rng.Intn(4) {
			case 0:
				c.Access(l, uint64(i), rng.Intn(2) == 0)
			case 1:
				c.Insert(l, uint64(i), uint64(i), false, rng.Intn(2) == 0, 0)
			case 2:
				c.MarkDirtyFill(l, uint64(i))
			case 3:
				c.Lookup(l)
			}
		}
		if c.occupancy() > 16 {
			return false
		}
		// Scan the tag words, which are authoritative for validity, for
		// duplicate tags among the demand ways.
		seen := map[uint64]bool{}
		for si := 0; si < c.cfg.Sets(); si++ {
			base := si * c.cfg.Ways
			for _, lv := range c.lines[base : base+c.demandWays] {
				if lv == 0 {
					continue
				}
				if seen[lv&tagMask] {
					return false
				}
				seen[lv&tagMask] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || PLRU.String() != "PLRU" || SRRIP.String() != "SRRIP" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still format")
	}
}

func TestPLRUNonPow2Fallback(t *testing.T) {
	// 8 sets x 3 ways exercises the CLOCK fallback path.
	cfg := Config{Name: "np2", SizeBytes: 8 * 3 * mem.LineBytes, Ways: 3, HitLatency: 1, Policy: PLRU}
	c := New(cfg)
	for i := 0; i < 200; i++ {
		l := mem.Line(i % 24)
		if res := c.Access(l, uint64(i), false); !res.Hit {
			c.Insert(l, uint64(i), uint64(i), false, false, 0)
		}
	}
	if c.occupancy() > 24 {
		t.Fatalf("occupancy %d exceeds capacity", c.occupancy())
	}
}

// occupancy returns the number of valid demand-visible lines.
func (c *Cache) occupancy() int {
	n := 0
	for si := 0; si < c.cfg.Sets(); si++ {
		base := si * c.cfg.Ways
		for _, lv := range c.lines[base : base+c.demandWays] {
			if lv != 0 {
				n++
			}
		}
	}
	return n
}
