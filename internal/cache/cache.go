package cache

import (
	"fmt"

	"prophet/internal/mem"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache in stats output ("L1D", "L2", "L3").
	Name string
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in cycles.
	HitLatency uint64
	// MSHRs is the number of outstanding-miss registers (consumed by the
	// core/hierarchy model, recorded here for reporting).
	MSHRs int
	// Policy selects the replacement policy.
	Policy Policy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * mem.LineBytes) }

// Validate reports configuration errors (non-power-of-two sets, zero sizes).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*mem.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Eviction describes a line displaced by a fill or SetDemandWays: the way's
// tag word and, for a line evicted while still unreferenced by demand, the
// PC whose prefetch filled it. The zero Eviction displaced nothing. It
// stays two words so that it is passed in registers: the compiler keeps a
// struct of more than four fields on the stack, and copying one built field
// by field stalls on store forwarding.
type Eviction struct {
	word    uint64
	trigger mem.Addr
}

// Valid reports whether a line was displaced.
func (e Eviction) Valid() bool { return e.word != 0 }

// Line returns the displaced line, when Valid.
func (e Eviction) Line() mem.Line { return mem.Line(e.word&tagMask - 1) }

// Dirty reports whether a line was displaced that must be written back.
func (e Eviction) Dirty() bool { return e.word&dirtyBit != 0 }

// Prefetch reports whether the line was evicted still unreferenced by
// demand.
func (e Eviction) Prefetch() bool { return e.word&prefetchBit != 0 }

// Trigger returns the PC whose prefetch filled the line, when Prefetch.
func (e Eviction) Trigger() mem.Addr { return e.trigger }

// String formats the eviction for test failures and debugging.
func (e Eviction) String() string {
	if !e.Valid() {
		return "no eviction"
	}
	return fmt.Sprintf("%v dirty=%v prefetch=%v trigger=%#x", e.Line(), e.Dirty(), e.Prefetch(), uint64(e.Trigger()))
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Writebacks uint64
}

// The tag word of a way holds line+1 in bits 0–58 (0 marks an invalid
// way), the dirty bit in bit 62 and the prefetch bit (filled by a prefetch
// and not yet referenced by demand) in bit 63.
const (
	tagMask     = 1<<59 - 1
	dirtyBit    = 1 << 62
	prefetchBit = 1 << 63
)

// Cache is one level of the hierarchy. The zero value is not usable; use New.
//
// The demand-visible portion of the cache may be narrowed with SetDemandWays
// (used by the LLC when the temporal prefetcher's metadata table claims ways).
//
// Every line passed to a cache must be at most mem.MaxLine, the highest
// line of a 64-bit address, so that line+1 fits the tag word.
//
// Tag state is three flat arrays, set-major with the ways of a set
// adjacent: one tag word per way, which a way scan loads and a hit, fill
// or eviction then reads and rewrites in place, plus the fill-ready cycle
// and the prefetch trigger PC (written and read only under the prefetch
// bit). The trigger array is allocated by the first prefetch fill, so a
// level that never takes one (the L3, which fills only on demand and
// writeback) never carries it. Replacement state is one flat replacer per
// cache.
type Cache struct {
	cfg        Config
	lines      []uint64   // tag word per way
	ready      []uint64   // cycle at which the way's fill completes
	trigger    []mem.Addr // PC whose prefetch filled the way; nil until the first prefetch fill
	repl       replacer
	setMask    uint64
	demandWays int
	clock      uint64 // logical access counter for LRU ordering
	stats      Stats
}

// New builds a cache from cfg. It panics on invalid configurations, which are
// programmer errors (configs are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:        cfg,
		lines:      make([]uint64, sets*cfg.Ways),
		ready:      make([]uint64, sets*cfg.Ways),
		repl:       newReplacer(cfg.Policy, sets, cfg.Ways),
		setMask:    uint64(sets - 1),
		demandWays: cfg.Ways,
	}
}

// Reset restores the cache to its just-constructed state, reusing the
// backing arrays. It exists so internal/sim can pool simulated systems
// across runs; a reset cache is indistinguishable from a fresh one.
//
// Only the tag words are cleared. A way's ready cycle is read only while
// its tag word is valid and its trigger only under the prefetch bit, and
// the fill that set the word wrote both, so their stale contents are
// unobservable. Replacement state is still reset eagerly: the CLOCK hand
// is read before any insert, so stale recency would change victim choices.
func (c *Cache) Reset() {
	clear(c.lines)
	c.repl.reset()
	c.demandWays = c.cfg.Ways
	c.clock = 0
	c.stats = Stats{}
}

// scan looks for tag want (line+1) among the first limit ways of set si.
// On a hit it returns the way and the tag word it loaded; on a miss w is
// -1 and free is the first invalid way, or -1 when every way is valid.
func (c *Cache) scan(si int, want uint64, limit int) (w int, lv uint64, free int) {
	base := si * c.cfg.Ways
	free = -1
	for i, v := range c.lines[base : base+limit] {
		if v&tagMask == want {
			return i, v, -1
		}
		if v == 0 && free < 0 {
			free = i
		}
	}
	return -1, 0, free
}

// hit applies a demand hit to way w of set si, whose tag word the scan
// loaded as lv: a recency touch, consumption of the prefetch bit, and the
// dirty bit on a write. It returns what the access reports.
func (c *Cache) hit(si, w int, lv uint64, write bool) AccessResult {
	i := si*c.cfg.Ways + w
	c.stats.Hits++
	c.repl.touch(si, w, c.clock)
	res := AccessResult{Hit: true, Ready: c.ready[i]}
	if lv&prefetchBit != 0 {
		res.WasPrefetch = true
		res.Trigger = c.trigger[i]
	}
	if write {
		lv |= dirtyBit
	}
	c.lines[i] = lv &^ prefetchBit
	return res
}

// evict empties the valid way at flat index i, counting a writeback when
// it was dirty, and returns its eviction record.
func (c *Cache) evict(i int) Eviction {
	ev := Eviction{word: c.lines[i]}
	c.lines[i] = 0
	if ev.Prefetch() {
		ev.trigger = c.trigger[i]
	}
	if ev.Dirty() {
		c.stats.Writebacks++
	}
	return ev
}

// put fills tag want into way w of set si or, when w is -1, into the way
// the replacement policy picks among the demand ways, returning the line
// it displaced.
func (c *Cache) put(si, w int, want, ready uint64, dirty, prefetch bool, trigger mem.Addr) Eviction {
	var ev Eviction
	if w < 0 {
		w = c.repl.victim(si, c.demandWays)
		ev = c.evict(si*c.cfg.Ways + w)
	}
	i := si*c.cfg.Ways + w
	if dirty {
		want |= dirtyBit
	}
	if prefetch {
		want |= prefetchBit
		if c.trigger == nil {
			c.trigger = make([]mem.Addr, len(c.lines))
		}
		c.trigger[i] = trigger
	}
	c.lines[i] = want
	c.ready[i] = ready
	c.repl.insert(si, w, c.clock)
	c.stats.Fills++
	return ev
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// DemandWays returns the associativity currently visible to demand fills.
func (c *Cache) DemandWays() int { return c.demandWays }

func (c *Cache) setIndex(l mem.Line) int { return int(uint64(l) & c.setMask) }

// Lookup probes for a line without changing replacement state.
// It returns the fill-ready cycle for timeliness accounting.
func (c *Cache) Lookup(l mem.Line) (ready uint64, hit bool) {
	ready, hit, _ = c.LookupFill(l)
	return ready, hit
}

// LookupFill probes like Lookup but the same scan also records the first
// free demand way, so a miss can be completed by Fill without rescanning
// the set. Like Lookup it changes no state and counts no stats; the
// FillSlot is subject to the same no-intervening-operations contract as
// AccessFill's.
func (c *Cache) LookupFill(l mem.Line) (ready uint64, hit bool, slot FillSlot) {
	si := c.setIndex(l)
	w, _, free := c.scan(si, uint64(l)+1, c.demandWays)
	if w >= 0 {
		return c.ready[si*c.cfg.Ways+w], true, FillSlot{}
	}
	return 0, false, FillSlot{si: si, free: free}
}

// AccessResult reports what a demand access found.
type AccessResult struct {
	Hit bool
	// Ready is the cycle the line's data is available (fills in flight
	// make this later than the access cycle).
	Ready uint64
	// WasPrefetch is true when this demand access is the first touch of a
	// prefetched line — i.e. the prefetch was useful.
	WasPrefetch bool
	// Trigger is the PC whose prefetch brought the line in (valid only
	// when WasPrefetch).
	Trigger mem.Addr
}

// Access performs a demand access at cycle now. On a hit it updates recency,
// dirtiness and the prefetch-usefulness bookkeeping. On a miss the caller is
// responsible for filling the line (via Insert) after fetching it from the
// next level.
func (c *Cache) Access(l mem.Line, now uint64, write bool) AccessResult {
	res, _ := c.AccessFill(l, now, write)
	return res
}

// FillSlot remembers, across a miss, where the fetched line will be filled:
// the set index and the first free demand way found during the access scan
// (-1 when the set is full and a victim must be chosen). It is only valid
// while no other operation touches the cache between AccessFill and Fill.
type FillSlot struct {
	si   int
	free int
}

// AccessFill is Access fused with the fill-side tag scan: the single way
// scan that decides hit/miss also records the first free way, so a miss can
// be completed by Fill without rescanning the set. Behaviour and statistics
// are bit-identical to Access followed (on a miss) by Insert, provided
// nothing else touches the cache in between — which holds for the LLC,
// where misses go straight to DRAM with no intervening prefetch fills.
func (c *Cache) AccessFill(l mem.Line, now uint64, write bool) (AccessResult, FillSlot) {
	c.clock++
	si := c.setIndex(l)
	w, lv, free := c.scan(si, uint64(l)+1, c.demandWays)
	if w >= 0 {
		return c.hit(si, w, lv, write), FillSlot{}
	}
	c.stats.Misses++
	return AccessResult{}, FillSlot{si: si, free: free}
}

// Fill completes the miss recorded by AccessFill's slot, equivalent to
// Insert of the same line but without a second tag scan. The in-place
// refill branch of Insert cannot apply: the line just missed and, per the
// FillSlot contract, nothing has inserted it since.
func (c *Cache) Fill(slot FillSlot, l mem.Line, ready uint64, dirty, prefetch bool, trigger mem.Addr) Eviction {
	c.clock++
	return c.put(slot.si, slot.free, uint64(l)+1, ready, dirty, prefetch, trigger)
}

// Insert fills line l, choosing a victim within the demand-visible ways.
// ready is the cycle the fill data arrives; prefetch marks prefetch fills and
// trigger records the requesting PC. The displaced line, if any, is returned
// so the caller can write it back or notify prefetch-accuracy bookkeeping.
func (c *Cache) Insert(l mem.Line, now, ready uint64, dirty, prefetch bool, trigger mem.Addr) Eviction {
	c.clock++
	si := c.setIndex(l)
	// One scan finds a refill of a line already present (e.g. prefetch
	// racing demand — update in place, never duplicate tags) and remembers
	// the first free way for the fill.
	w, lv, free := c.scan(si, uint64(l)+1, c.demandWays)
	if w < 0 {
		return c.put(si, free, uint64(l)+1, ready, dirty, prefetch, trigger)
	}
	i := si*c.cfg.Ways + w
	if ready < c.ready[i] {
		c.ready[i] = ready
	}
	if dirty {
		c.lines[i] = lv | dirtyBit
	}
	return Eviction{}
}

// MarkDirtyFill performs the writeback fast path fused with the fill-side
// scan. If l is present in the demand-visible ways it applies exactly the
// side effects of a demand write hit (recency touch, dirty bit,
// prefetch-flag consumption) and reports handled; the slot is then
// meaningless. Otherwise no state changed, and the same tag pass has
// recorded the first free demand way, so the caller completes the
// writeback miss with Fill without rescanning the set; the slot obeys the
// usual FillSlot contract.
func (c *Cache) MarkDirtyFill(l mem.Line, now uint64) (handled bool, slot FillSlot) {
	si := c.setIndex(l)
	w, lv, free := c.scan(si, uint64(l)+1, c.demandWays)
	if w < 0 {
		return false, FillSlot{si: si, free: free}
	}
	c.clock++
	c.hit(si, w, lv, true)
	return true, FillSlot{}
}

// SetDemandWays narrows or widens the demand-visible associativity (the LLC
// calls this when metadata ways are allocated or released). Shrinking evicts
// every line in the ways being removed and passes each to evicted, set by
// set, as it goes; the caller writes the dirty ones back. Nothing is
// collected, so a shrink allocates nothing.
func (c *Cache) SetDemandWays(n int, evicted func(Eviction)) {
	n = max(0, min(n, c.cfg.Ways))
	for si := 0; n < c.demandWays && si < c.cfg.Sets(); si++ {
		base := si * c.cfg.Ways
		for i := base + n; i < base+c.demandWays; i++ {
			if c.lines[i] != 0 {
				evicted(c.evict(i))
			}
		}
	}
	c.demandWays = n
}
