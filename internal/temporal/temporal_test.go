package temporal

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"prophet/internal/mem"
)

func smallTable(policy Policy) TableConfig {
	return TableConfig{Sets: 16, EntriesPerWay: 2, MaxWays: 4, Policy: policy}
}

// capacity returns the table's current entry capacity.
func (t *Table) capacity() int { return t.ways * t.cfg.Sets * t.cfg.EntriesPerWay }

// live returns the number of valid entries.
func (t *Table) live() int {
	n := 0
	for set := range t.count {
		for _, tg := range t.setTags(set) {
			if tg&tagLiveBit != 0 {
				n++
			}
		}
	}
	return n
}

// last peeks at PC's latest line without updating.
func (u *TrainingUnit) last(pc mem.Addr) (mem.Line, bool) {
	i := u.slot(pc)
	if u.valid[i] && u.pcs[i] == pc {
		return u.lines[i], true
	}
	return 0, false
}

func TestCompressorRoundTrip(t *testing.T) {
	c := NewCompressor()
	lines := []mem.Line{100, 200, 100, 300}
	idx := make([]uint32, len(lines))
	for i, l := range lines {
		idx[i] = c.Index(l)
	}
	if idx[0] != idx[2] {
		t.Fatal("same line produced different indices")
	}
	if idx[0] == idx[1] || idx[1] == idx[3] {
		t.Fatal("distinct lines share an index")
	}
	for i, l := range lines {
		got, ok := c.Line(idx[i])
		if !ok || got != l {
			t.Fatalf("Line(%d) = %v,%v want %v", idx[i], got, ok, l)
		}
	}
	if c.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", c.Entries())
	}
}

func TestCompressorLookupNoAllocate(t *testing.T) {
	c := NewCompressor()
	if _, ok := c.Lookup(42); ok {
		t.Fatal("Lookup invented a mapping")
	}
	if c.Entries() != 0 {
		t.Fatal("Lookup allocated")
	}
	c.Index(42)
	if idx, ok := c.Lookup(42); !ok || idx != 0 {
		t.Fatalf("Lookup after Index = %v,%v", idx, ok)
	}
}

// TestCompressorRecycledIsFresh: a compressor grown past its presize and
// recycled through Release/NewCompressor assigns the same index sequence as
// a new one, starts empty, and no longer translates its old indices.
func TestCompressorRecycledIsFresh(t *testing.T) {
	const grown = 200_000 // past the 196,608-line presize, so the slots and toLine regrew
	c := NewCompressor()
	for i := range grown {
		c.Index(mem.Line(1_000_003 * uint64(i+1)))
	}
	c.Release()
	r := NewCompressor()
	if r != c {
		t.Fatal("the Released compressor was not reused")
	}
	if r.Entries() != 0 {
		t.Fatalf("recycled compressor holds %d entries", r.Entries())
	}
	if _, ok := r.Line(grown - 1); ok {
		t.Fatal("recycled compressor still translates a stale index")
	}
	if _, ok := r.Lookup(mem.Line(1_000_003)); ok {
		t.Fatal("recycled compressor still maps a stale line")
	}
	fresh := &Compressor{}
	fresh.alloc(compressorSlots)
	for i := range 2 * grown {
		l := mem.Line(7919*uint64(i%(grown/2)) + 17) // repeats: hits and first touches
		if got, want := r.Index(l), fresh.Index(l); got != want {
			t.Fatalf("access %d: recycled Index = %d, fresh = %d", i, got, want)
		}
	}
	if r.Entries() != fresh.Entries() {
		t.Fatalf("Entries: recycled %d, fresh %d", r.Entries(), fresh.Entries())
	}
}

// TestCompressorReuseReachesAnyP: a compressor Released by one goroutine
// is reused by another (the pool is one free list, not per-P slots), a
// compressor in use is never handed out again, and a double Release still
// lets only one run claim it.
func TestCompressorReuseReachesAnyP(t *testing.T) {
	c := NewCompressor()
	done := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		c.Release()
		close(done)
	}()
	<-done
	if r := NewCompressor(); r != c {
		t.Fatal("a compressor Released on another goroutine was not reused")
	}
	if d := NewCompressor(); d == c {
		t.Fatal("a compressor in use was handed out a second time")
	}
	c.Release()
	c.Release() // a second Release must not let two runs share c
	if a, b := NewCompressor(), NewCompressor(); a == b {
		t.Fatal("a doubly released compressor was handed out twice")
	}
}

// TestCompressorPoolConcurrent cycles compressors through the pool from
// several goroutines at once (as concurrent sweep runs do): each one handed
// out must start empty and assign first-touch indices from 0.
func TestCompressorPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := range 50 {
				c := NewCompressor()
				for j := range 1000 {
					l := mem.Line(uint64(g)<<32 | uint64(iter*1000+j))
					if got := c.Index(l); got != uint32(j) {
						t.Errorf("goroutine %d run %d: line %d got index %d", g, iter, j, got)
						return
					}
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

func TestCompressorSequentialAssignment(t *testing.T) {
	c := NewCompressor()
	for i := 0; i < 100; i++ {
		if got := c.Index(mem.Line(1000 + i)); got != uint32(i) {
			t.Fatalf("index %d assigned %d", i, got)
		}
	}
}

func TestTableInsertLookup(t *testing.T) {
	tb := NewTable(smallTable(MetaSRRIP), 4)
	tb.Insert(5, 99, 0)
	got, ok := tb.Lookup(5)
	if !ok || got != 99 {
		t.Fatalf("Lookup(5) = %d,%v want 99,true", got, ok)
	}
	if _, ok := tb.Lookup(6); ok {
		t.Fatal("Lookup(6) hit on empty slot")
	}
	st := tb.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTableUpdateInPlace(t *testing.T) {
	tb := NewTable(smallTable(MetaSRRIP), 4)
	tb.Insert(5, 99, 0)
	// Updating with a new target displaces the old target (which feeds
	// the Multi-path Victim Buffer).
	ev := tb.Insert(5, 77, 2)
	if !ev.Valid || ev.Target != 99 {
		t.Fatalf("update displaced %+v, want old target 99", ev)
	}
	got, _ := tb.Lookup(5)
	if got != 77 {
		t.Fatalf("target after update = %d, want 77", got)
	}
	// Re-inserting the same target displaces nothing.
	if ev := tb.Insert(5, 77, 2); ev.Valid {
		t.Fatalf("same-target update displaced %+v", ev)
	}
	st := tb.Stats()
	if st.Insertions != 1 || st.Updates != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTableCapacityAndReplacement(t *testing.T) {
	cfg := smallTable(MetaSRRIP)
	tb := NewTable(cfg, 1) // 2 entries per set
	// Sources 0, 16, 32 map to set 0 with distinct tags.
	tb.Insert(0, 1, 0)
	tb.Insert(16, 2, 0)
	ev := tb.Insert(32, 3, 0)
	if !ev.Valid {
		t.Fatal("full set insert did not evict")
	}
	if tb.Stats().Replacements != 1 {
		t.Fatalf("replacements = %d", tb.Stats().Replacements)
	}
	if live := tb.live(); live != 2 {
		t.Fatalf("live entries = %d, want 2", live)
	}
}

func TestTableProphetPriorityVictim(t *testing.T) {
	cfg := smallTable(ProphetPriority)
	tb := NewTable(cfg, 1)
	tb.Insert(0, 1, 3)  // high priority
	tb.Insert(16, 2, 0) // low priority
	tb.Lookup(16)       // recently used, but priority dominates
	ev := tb.Insert(32, 3, 2)
	if !ev.Valid || ev.Target != 2 {
		t.Fatalf("Prophet policy evicted %+v, want the low-priority entry (target 2)", ev)
	}
	// High-priority entry survives.
	if got, ok := tb.Lookup(0); !ok || got != 1 {
		t.Fatal("high-priority entry was evicted")
	}
}

func TestTableZeroWaysDropsInserts(t *testing.T) {
	tb := NewTable(smallTable(MetaSRRIP), 0)
	ev := tb.Insert(1, 2, 0)
	if ev.Valid || tb.live() != 0 {
		t.Fatal("zero-capacity table accepted an insert")
	}
	if _, ok := tb.Lookup(1); ok {
		t.Fatal("zero-capacity table returned a hit")
	}
}

func TestTableResizeShrinkEvicts(t *testing.T) {
	cfg := smallTable(MetaSRRIP)
	tb := NewTable(cfg, 4) // 8 entries per set
	// Fill set 0 with 8 entries (sources 0,16,...,112).
	for i := 0; i < 8; i++ {
		tb.Insert(uint32(16*i), uint32(i+1), 0)
	}
	evs := resizeEvicted(tb, 1) // down to 2 entries per set
	if len(evs) != 6 {
		t.Fatalf("shrink evicted %d entries, want 6", len(evs))
	}
	if tb.live() != 2 {
		t.Fatalf("live after shrink = %d, want 2", tb.live())
	}
	if tb.Ways() != 1 {
		t.Fatalf("ways = %d", tb.Ways())
	}
	if tb.capacity() != cfg.Sets*cfg.EntriesPerWay {
		t.Fatalf("capacity = %d", tb.capacity())
	}
}

func TestTableResizeClamps(t *testing.T) {
	tb := NewTable(smallTable(MetaSRRIP), 2)
	tb.Resize(99, nil)
	if tb.Ways() != 4 {
		t.Fatalf("ways = %d, want clamped 4", tb.Ways())
	}
	tb.Resize(-1, nil)
	if tb.Ways() != 0 {
		t.Fatalf("ways = %d, want 0", tb.Ways())
	}
}

func TestAllocatedEntries(t *testing.T) {
	s := TableStats{Insertions: 10, Replacements: 3}
	if s.AllocatedEntries() != 7 {
		t.Fatalf("AllocatedEntries = %d", s.AllocatedEntries())
	}
	s = TableStats{Insertions: 2, Replacements: 5}
	if s.AllocatedEntries() != 0 {
		t.Fatal("AllocatedEntries should clamp at 0")
	}
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	cfg := DefaultTableConfig()
	if cfg.MaxEntries() != 196608 {
		t.Fatalf("1MB table = %d entries, want 196608 (Section 5.10)", cfg.MaxEntries())
	}
	if cfg.EntriesPerWayTotal() != 24576 {
		t.Fatalf("one way = %d entries, want 24576", cfg.EntriesPerWayTotal())
	}
}

// TestEvictedSrcKey pins the eviction record's source key to set | tag<<setBits:
// the bits above the tag are dropped, as the hardware drops them.
func TestEvictedSrcKey(t *testing.T) {
	cfg := DefaultTableConfig()      // 2048 sets -> 11 set bits
	src := uint32(7<<21 | 3<<11 | 5) // tag 3, set 5, and bits beyond the tag
	if got := cfg.SrcKey(src); got != 3<<11|5 {
		t.Fatalf("SrcKey = %d, want %d", got, 3<<11|5)
	}
	tb := NewTable(cfg, 1)
	defer tb.Release()
	tb.Insert(src, 1, 0)
	if ev := tb.Insert(src, 2, 0); !ev.Valid || ev.Src != 3<<11|5 {
		t.Fatalf("update displaced %+v, want Src %d", ev, 3<<11|5)
	}
	// A shrink to zero ways evicts it as a replacement would.
	if evs := resizeEvicted(tb, 0); len(evs) != 1 || evs[0].Src != 3<<11|5 || evs[0].Target != 2 {
		t.Fatalf("shrink evicted %+v, want one entry with Src %d target 2", evs, 3<<11|5)
	}
}

// TestSrcKeyMatchesSetTag checks the one-mask SrcKey against the key the
// MVB path used to rebuild from an explicit set and 10-bit tag, for random
// sources at the 16-set test geometry and the 2048-set Table 1 one.
func TestSrcKeyMatchesSetTag(t *testing.T) {
	rng := mem.NewPRNG(11)
	for _, sets := range []int{16, 2048} {
		cfg := TableConfig{Sets: sets}
		setBits := 0
		for 1<<setBits < sets {
			setBits++
		}
		for range 10_000 {
			src := uint32(rng.Uint64()) & MaxIndex
			set := src & uint32(sets-1)
			tag := src >> setBits & 0x3FF
			if got, want := cfg.SrcKey(src), tag<<setBits|set; got != want {
				t.Fatalf("sets %d: SrcKey(%#x) = %#x, set/tag key %#x", sets, src, got, want)
			}
		}
	}
}

// TestSlotSize pins a metadata slot at 7 bytes — a 4-byte target, a 2-byte
// tag word carrying the tag, RRPV and live bit, and a 1-byte priority — so
// a Table 1 table is 1,376,256 bytes (1.3125 MiB).
func TestSlotSize(t *testing.T) {
	tb := NewTable(DefaultTableConfig(), 0)
	defer tb.Release()
	perSlot := unsafe.Sizeof(tb.entries[0]) + unsafe.Sizeof(tb.tags[0]) + unsafe.Sizeof(tb.prios[0])
	if perSlot != 7 {
		t.Fatalf("%d bytes per slot, want 7", perSlot)
	}
	n := len(tb.entries)
	if len(tb.tags) != n || len(tb.prios) != n || n*int(perSlot) != 1_376_256 {
		t.Fatalf("Table 1 table: %d/%d/%d slots of %d bytes, want 1376256 bytes", n, len(tb.tags), len(tb.prios), perSlot)
	}
}

func TestChase(t *testing.T) {
	tb := NewTable(smallTable(MetaSRRIP), 4)
	comp := NewCompressor()
	// Build chain A -> B -> C -> D.
	lines := []mem.Line{1000, 2000, 3000, 4000}
	var idx []uint32
	for _, l := range lines {
		idx = append(idx, comp.Index(l))
	}
	for i := 0; i+1 < len(idx); i++ {
		tb.Insert(idx[i], idx[i+1], 0)
	}
	got := AppendChase(nil, tb, comp, idx[0], 4)
	if len(got) != 3 {
		t.Fatalf("AppendChase found %d lines, want 3", len(got))
	}
	for i, want := range lines[1:] {
		if got[i] != want {
			t.Errorf("chase step %d = %v, want %v", i, got[i], want)
		}
	}
	if got := AppendChase(nil, tb, comp, idx[0], 2); len(got) != 2 {
		t.Fatalf("degree-2 chase returned %d lines", len(got))
	}
}

func TestTrainingUnit(t *testing.T) {
	u := NewTrainingUnit(64)
	if _, ok := u.Observe(1, 100); ok {
		t.Fatal("first observation returned a previous line")
	}
	prev, ok := u.Observe(1, 200)
	if !ok || prev != 100 {
		t.Fatalf("Observe = %v,%v want 100,true", prev, ok)
	}
	if last, ok := u.last(1); !ok || last != 200 {
		t.Fatalf("last = %v,%v", last, ok)
	}
	if _, ok := u.last(999); ok {
		t.Fatal("last hit for unknown PC")
	}
}

func TestTrainingUnitConflict(t *testing.T) {
	u := NewTrainingUnit(4)
	u.Observe(0x10, 1)
	// A conflicting PC evicts the old entry.
	conflict := mem.Addr(0x10 + 4*4)
	if u.slot(0x10) != u.slot(conflict) {
		t.Skip("hash changed; aliasing assumption broken")
	}
	u.Observe(conflict, 2)
	if _, ok := u.last(0x10); ok {
		t.Fatal("evicted PC still present")
	}
}

func TestReuseBuffer(t *testing.T) {
	b := NewReuseBuffer(2)
	b.Insert(1, 10)
	b.Insert(2, 20)
	if v, ok := b.Lookup(1); !ok || v != 10 {
		t.Fatalf("Lookup(1) = %v,%v", v, ok)
	}
	// 2 is now LRU; inserting 3 evicts it.
	b.Insert(3, 30)
	if _, ok := b.Lookup(2); ok {
		t.Fatal("LRU entry not evicted")
	}
	if v, ok := b.Lookup(1); !ok || v != 10 {
		t.Fatalf("MRU entry lost: %v,%v", v, ok)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Insert(1, 11) // update in place
	if v, _ := b.Lookup(1); v != 11 {
		t.Fatal("update in place failed")
	}
}

func TestTargetHistogram(t *testing.T) {
	h := NewTargetHistogram(5)
	// src 1: one target; src 2: two; src 3: three.
	h.Observe(1, 10)
	h.Observe(1, 10)
	h.Observe(2, 10)
	h.Observe(2, 20)
	h.Observe(3, 10)
	h.Observe(3, 20)
	h.Observe(3, 30)
	f := h.FractionsMin(1)
	want := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 0, 0}
	for i := range want {
		if diff := f[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("fraction[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	if h.Sources() != 3 {
		t.Fatalf("Sources = %d", h.Sources())
	}
}

func TestTargetHistogramClamp(t *testing.T) {
	h := NewTargetHistogram(2)
	for i := 0; i < 10; i++ {
		h.Observe(1, uint64(i))
	}
	f := h.FractionsMin(1)
	if f[1] != 1.0 {
		t.Fatalf("clamped bucket = %v, want 1.0", f[1])
	}
}

func TestTargetHistogramEmpty(t *testing.T) {
	h := NewTargetHistogram(3)
	for _, v := range h.FractionsMin(1) {
		if v != 0 {
			t.Fatal("empty histogram has non-zero fractions")
		}
	}
}

// Property: the table never exceeds capacity and lookups after insert find
// the most recent target, for arbitrary operation sequences.
func TestTableInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mem.NewPRNG(seed)
		cfg := smallTable(Policy(seed % 3)) // SRRIP, priority or Hawkeye
		tb := NewTable(cfg, 1+int(seed%4))
		latest := map[uint32]uint32{}
		for i := 0; i < 3000; i++ {
			src := uint32(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				target := uint32(rng.Intn(1 << 20))
				tb.Insert(src, target, uint8(rng.Intn(4)))
				latest[src] = target
			case 1:
				if got, ok := tb.Lookup(src); ok {
					// A hit must return the latest inserted
					// target for a source with that tag...
					// unless a tag alias overwrote it; with
					// 16 sets and srcs < 256 there are no
					// tag aliases (tag = src>>4 < 16).
					if want, seen := latest[src]; seen && got != want {
						return false
					}
				}
			case 2:
				tb.Resize(rng.Intn(cfg.MaxWays+1), nil)
			}
			if tb.live() > tb.capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if MetaSRRIP.String() == "" || ProphetPriority.String() == "" || MetaHawkeye.String() == "" {
		t.Fatal("policies must have names")
	}
	if Policy(77).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

// scanLRU is the reference reuse buffer the recency list replaced: per-slot
// timestamps and a full scan for the least recently used victim.
type scanLRU struct {
	clock   uint64
	keys    []uint32
	targets []uint32
	last    []uint64
	n       int
}

func (b *scanLRU) find(src uint32) int {
	for i := 0; i < b.n; i++ {
		if b.keys[i] == src {
			return i
		}
	}
	return -1
}

func (b *scanLRU) lookup(src uint32) (uint32, bool) {
	i := b.find(src)
	if i < 0 {
		return 0, false
	}
	b.clock++
	b.last[i] = b.clock
	return b.targets[i], true
}

func (b *scanLRU) insert(src, target uint32) {
	b.clock++
	i := b.find(src)
	if i < 0 {
		if b.n < len(b.keys) {
			i = b.n
			b.n++
		} else {
			i = 0
			for j := range b.last {
				if b.last[j] < b.last[i] {
					i = j
				}
			}
		}
		b.keys[i] = src
	}
	b.targets[i] = target
	b.last[i] = b.clock
}

// TestReuseBufferMatchesScanLRU drives the O(1) reuse buffer and the
// timestamp-scan reference with the same random mix of lookups, updates and
// evicting inserts; every lookup must agree, so the victims are identical.
func TestReuseBufferMatchesScanLRU(t *testing.T) {
	for _, capEntries := range []int{1, 2, 7, 128} {
		b := NewReuseBuffer(capEntries)
		ref := &scanLRU{
			keys:    make([]uint32, capEntries),
			targets: make([]uint32, capEntries),
			last:    make([]uint64, capEntries),
		}
		rng := mem.NewPRNG(uint64(capEntries))
		for op := range 20_000 {
			src := uint32(rng.Intn(3 * capEntries))
			if rng.Intn(2) == 0 {
				got, gotOK := b.Lookup(src)
				want, wantOK := ref.lookup(src)
				if got != want || gotOK != wantOK {
					t.Fatalf("cap %d op %d: Lookup(%d) = %d,%v, reference %d,%v", capEntries, op, src, got, gotOK, want, wantOK)
				}
			} else {
				target := uint32(op)
				b.Insert(src, target)
				ref.insert(src, target)
			}
			if b.Len() != ref.n {
				t.Fatalf("cap %d op %d: Len = %d, reference %d", capEntries, op, b.Len(), ref.n)
			}
		}
	}
}
