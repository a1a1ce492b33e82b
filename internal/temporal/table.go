package temporal

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Policy selects the metadata-table replacement policy.
type Policy uint8

const (
	// MetaSRRIP is the 2-bit RRIP policy Triangel uses for metadata.
	MetaSRRIP Policy = iota
	// ProphetPriority implements the paper's profile-guided replacement:
	// victim candidates are the entries with the lowest hint priority, and
	// the runtime policy's RRIP state chooses the final victim among them
	// (Section 4.2).
	ProphetPriority
	// MetaHawkeye is the Hawkeye-style predictor the original Triage used
	// (Section 2.1.2): premature evictions mark entries cache-friendly and
	// protect them on re-insertion (see hawkeye.go).
	MetaHawkeye
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MetaSRRIP:
		return "meta-srrip"
	case ProphetPriority:
		return "prophet-priority"
	case MetaHawkeye:
		return "meta-hawkeye"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// TableConfig describes the metadata table geometry.
type TableConfig struct {
	// Sets mirrors the host LLC's set count (2048 for the Table 1 LLC).
	Sets int
	// EntriesPerWay is how many packed entries one LLC way contributes per
	// set (12 compressed entries per 64-byte line).
	EntriesPerWay int
	// MaxWays caps the LLC ways the table may claim (8 ways = 1MB).
	MaxWays int
	// Policy selects victim selection.
	Policy Policy
}

// DefaultTableConfig matches the Table 1 LLC with the paper's 1MB cap.
func DefaultTableConfig() TableConfig {
	return TableConfig{Sets: 2048, EntriesPerWay: 12, MaxWays: 8, Policy: MetaSRRIP}
}

// EntriesPerWayTotal is the total entries one way contributes across sets.
func (c TableConfig) EntriesPerWayTotal() int { return c.Sets * c.EntriesPerWay }

// MaxEntries is the capacity at MaxWays.
func (c TableConfig) MaxEntries() int { return c.MaxWays * c.EntriesPerWayTotal() }

const tagBits = 10
const tagMask = 1<<tagBits - 1

// Entry is the payload of one Markov metadata slot: the 31-bit compressed
// target that followed the source line, plus replacement state. The slot's
// 10-bit tag and its live bit are not here: they live only in the table's
// tag words (tag|tagLiveBit), which every probe scans anyway, so an Entry
// packs into 8 bytes.
type Entry struct {
	Target   uint32
	Priority uint8 // Prophet replacement state (Equation 2's n bits)
	rrpv     uint8
}

// Evicted describes a metadata entry displaced from the table.
type Evicted struct {
	// Src is the entry's lossy source key, set | tag<<setBits: the
	// compressed source index truncated to its set and tag bits (see
	// TableConfig.SrcKey).
	Src      uint32
	Target   uint32
	Priority uint8
	Valid    bool
}

// SrcKey truncates a compressed source index to the bits the table keeps of
// it, its set and tag: two sources share a key exactly when they share a
// slot. It is the key eviction records carry and the Multi-path Victim
// Buffer indexes with; like the hardware it is lossy beyond set+tag bits.
func (c TableConfig) SrcKey(src uint32) uint32 {
	return src & (uint32(c.Sets)<<tagBits - 1)
}

// TableStats counts metadata-table events. Insertions - Replacements is the
// "allocated entries" PMU metric of Section 4.1.
type TableStats struct {
	Lookups      uint64
	Hits         uint64
	Insertions   uint64
	Updates      uint64
	Replacements uint64
}

// AllocatedEntries returns insertions minus replacements (Section 4.1).
func (s TableStats) AllocatedEntries() uint64 {
	if s.Replacements >= s.Insertions {
		return 0
	}
	return s.Insertions - s.Replacements
}

// Table is the in-LLC Markov metadata table. It is associativity-resizable:
// its capacity is ways x Sets x EntriesPerWay and changing ways is how
// resizing policies trade metadata capacity against demand LLC capacity.
//
// Storage is two flat arrays of Sets x (MaxWays x EntriesPerWay) slots, one
// 2-byte tag word and one 8-byte Entry per slot; set s occupies the window
// starting at s*maxPerSet with count[s] live slots. Flat backing arrays cost
// a fixed number of allocations per table instead of one (growing) slice per
// hot set, and keep a set's tag words on adjacent cache lines for the
// per-access linear tag scans.
type Table struct {
	cfg       TableConfig
	ways      int
	setBits   uint
	maxPerSet int
	entries   []Entry  // flat: Sets consecutive windows of maxPerSet slots
	tags      []uint16 // tag|tagLiveBit per slot: the only copy of both
	count     []int32  // live slots per set (the old per-set slice length)
	stats     TableStats
	hawkeye   *hawkeyeState // non-nil for MetaHawkeye
	free      atomic.Bool   // see recycler
}

// tagLiveBit marks a live slot in the tags array. Tags are 10 bits, so bit 15
// is free; a zero tags word can never match a probe.
const tagLiveBit = 1 << 15

// tablePools recycles whole tables per geometry across runs. At the Table 1
// geometry the entry array alone is multi-megabyte, and every engine
// constructor allocates (and the runtime zeroes) a fresh one per simulation
// — a measurable slice of short-run CPU time. Recycling is sound without
// touching that array: every read of entries/tags is bounded by count[set],
// and a slot becomes live only through a full overwrite of its entry and tag
// word, so clearing the small per-set count array alone restores the
// fresh-table contract. The pools are keyed by geometry alone: the policy
// is per-run state that NewTable sets, so an idle table released under one
// policy serves the next run under any other instead of sitting beside it.
var tablePools struct {
	sync.RWMutex
	m map[tableGeometry]*recycler[Table]
}

// tableGeometry is the part of a TableConfig that sizes a table's storage.
type tableGeometry struct{ sets, entriesPerWay, maxWays int }

func tablePool(cfg TableConfig) *recycler[Table] {
	g := tableGeometry{cfg.Sets, cfg.EntriesPerWay, cfg.MaxWays}
	tablePools.RLock()
	p := tablePools.m[g]
	tablePools.RUnlock()
	if p != nil {
		return p
	}
	tablePools.Lock()
	defer tablePools.Unlock()
	if tablePools.m == nil {
		tablePools.m = map[tableGeometry]*recycler[Table]{}
	}
	if p = tablePools.m[g]; p == nil {
		p = &recycler[Table]{free: func(t *Table) *atomic.Bool { return &t.free }}
		tablePools.m[g] = p
	}
	return p
}

// NewTable builds a table with the given initial ways, recycling the storage
// of a previously Released table of the same geometry, under whatever
// policy, when one is available. It panics on invalid geometry (static
// configuration error).
func NewTable(cfg TableConfig, ways int) *Table {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("temporal: table sets must be a positive power of two")
	}
	if cfg.EntriesPerWay <= 0 || cfg.MaxWays <= 0 {
		panic("temporal: non-positive table geometry")
	}
	if ways < 0 {
		ways = 0
	}
	if ways > cfg.MaxWays {
		ways = cfg.MaxWays
	}
	t := tablePool(cfg).get()
	if t == nil {
		maxPerSet := cfg.MaxWays * cfg.EntriesPerWay
		t = &Table{
			setBits:   uint(bits.TrailingZeros(uint(cfg.Sets))),
			maxPerSet: maxPerSet,
			entries:   make([]Entry, cfg.Sets*maxPerSet),
			tags:      make([]uint16, cfg.Sets*maxPerSet),
			count:     make([]int32, cfg.Sets),
		}
	}
	t.reset(cfg, ways)
	return t
}

// reset readies a new or pooled table of cfg's geometry for a run under
// cfg's policy: the observable state of a fresh table with the given ways,
// which NewTable has already clamped. A pooled table's entries and tags
// arrays stay dirty on purpose: no code path reads a slot at index >=
// count[set] within a set's window, and slots enter the live window only
// via a full Entry+tag write, so stale contents (a previous policy's
// priorities and RRPVs included) are unobservable.
func (t *Table) reset(cfg TableConfig, ways int) {
	t.cfg = cfg
	t.ways = ways
	clear(t.count)
	t.stats = TableStats{}
	switch {
	case cfg.Policy != MetaHawkeye:
		t.hawkeye = nil
	case t.hawkeye == nil:
		t.hawkeye = newHawkeyeState()
	default:
		clear(t.hawkeye.ghosts)
	}
}

// Release returns the table to its geometry's pool so a future NewTable can
// reuse the backing arrays instead of allocating afresh. The caller must not
// touch the table afterwards. Releasing is optional — an unreleased table is
// ordinary garbage — so only per-run engine teardown bothers.
func (t *Table) Release() {
	if t == nil {
		return
	}
	tablePool(t.cfg).put(t)
}

// setSlice returns the live entries of one set (the window prefix).
func (t *Table) setSlice(set int) []Entry {
	base := set * t.maxPerSet
	return t.entries[base : base+int(t.count[set])]
}

// Config returns the table geometry.
func (t *Table) Config() TableConfig { return t.cfg }

// Ways returns the LLC ways currently allocated to metadata.
func (t *Table) Ways() int { return t.ways }

// Capacity returns the current entry capacity.
func (t *Table) Capacity() int { return t.ways * t.cfg.Sets * t.cfg.EntriesPerWay }

// Stats returns a copy of the table counters.
func (t *Table) Stats() TableStats { return t.stats }

// Live returns the number of valid entries (for occupancy accounting).
func (t *Table) Live() int {
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

// setTags returns the tag words of one set's live window.
func (t *Table) setTags(set int) []uint16 {
	base := set * t.maxPerSet
	return t.tags[base : base+int(t.count[set])]
}

// evicted returns the displacement record of slot i of set. Its source key
// is rebuilt from the set and the slot's tag word, so it must be taken
// before the slot is overwritten.
func (t *Table) evicted(set, i int) Evicted {
	base := set * t.maxPerSet
	e := t.entries[base+i]
	src := uint32(set) | uint32(t.tags[base+i]&tagMask)<<t.setBits
	return Evicted{Src: src, Target: e.Target, Priority: e.Priority, Valid: true}
}

func (t *Table) locate(src uint32) (set int, tag uint16) {
	set = int(src & uint32(t.cfg.Sets-1))
	tag = uint16((src >> t.setBits) & tagMask)
	return set, tag
}

// Lookup searches for the metadata of compressed source index src and
// returns its target. A hit promotes the entry in the replacement state.
func (t *Table) Lookup(src uint32) (target uint32, ok bool) {
	t.stats.Lookups++
	set, tag := t.locate(src)
	if i := t.findSlot(set, tag); i >= 0 {
		e := &t.entries[set*t.maxPerSet+i]
		t.stats.Hits++
		e.rrpv = 0
		return e.Target, true
	}
	return 0, false
}

// findSlot scans the tag words for a live entry with the given tag and
// returns its slot within the set, or -1. Scanning 2-byte tag words instead
// of the 8-byte entries keeps the (up to 96-entry) probe inside three cache
// lines.
func (t *Table) findSlot(set int, tag uint16) int {
	want := tag | tagLiveBit
	for i, tg := range t.setTags(set) {
		if tg == want {
			return i
		}
	}
	return -1
}

// Peek is Lookup without replacement-state side effects.
func (t *Table) Peek(src uint32) (target uint32, ok bool) {
	set, tag := t.locate(src)
	if i := t.findSlot(set, tag); i >= 0 {
		return t.entries[set*t.maxPerSet+i].Target, true
	}
	return 0, false
}

// Insert records the correlation src -> target with the given Prophet
// priority (0 when unused). If the table has zero capacity the insert is
// dropped. The displaced metadata, if any, is returned for victim-buffer
// handling; this includes the old target of an in-place update — when a
// source gains a new successor, its previous successor is exactly the
// "Markov target evicted from the metadata table" the Multi-path Victim
// Buffer exists to keep (Section 4.5).
//
// Every slot below count[set] is live (Resize compacts before it returns),
// so a miss either appends at count[set] or replaces a victim.
func (t *Table) Insert(src, target uint32, priority uint8) Evicted {
	capPerSet := t.ways * t.cfg.EntriesPerWay
	if capPerSet == 0 {
		return Evicted{}
	}
	set, tag := t.locate(src)
	base := set * t.maxPerSet
	// Existing entry: update target in place, reporting the displaced
	// target if it changed.
	if i := t.findSlot(set, tag); i >= 0 {
		e := &t.entries[base+i]
		ev := Evicted{}
		if e.Target != target {
			ev = Evicted{Src: t.cfg.SrcKey(src), Target: e.Target, Priority: e.Priority, Valid: true}
		}
		e.Target = target
		e.Priority = priority
		e.rrpv = 0
		t.stats.Updates++
		return ev
	}
	t.stats.Insertions++
	insertRRPV := uint8(srripInsertRRPV)
	if t.hawkeye != nil {
		// Hawkeye classification: prematurely evicted tags come back
		// protected; unknown tags come in cache-averse.
		if t.hawkeye.friendly(set, tag) {
			insertRRPV = 0
		} else {
			insertRRPV = srripMaxRRPV
		}
	}
	n := int(t.count[set])
	if n < capPerSet {
		t.entries[base+n] = Entry{Target: target, Priority: priority, rrpv: insertRRPV}
		t.tags[base+n] = tag | tagLiveBit
		t.count[set]++
		return Evicted{}
	}
	// Replacement. The victim's record and ghost read its tag word, so
	// both come before the overwrite.
	vi := t.victim(t.entries[base : base+n])
	ev := t.evicted(set, vi)
	if t.hawkeye != nil {
		t.hawkeye.observeEviction(set, t.tags[base+vi]&tagMask)
	}
	t.entries[base+vi] = Entry{Target: target, Priority: priority, rrpv: insertRRPV}
	t.tags[base+vi] = tag | tagLiveBit
	t.stats.Replacements++
	return ev
}

const (
	srripMaxRRPV    = 3
	srripInsertRRPV = 2
)

// victim selects the entry to replace within a full set according to the
// configured policy.
func (t *Table) victim(entries []Entry) int {
	switch t.cfg.Policy {
	case MetaSRRIP, MetaHawkeye:
		return victimSRRIP(entries, math.MaxUint8)
	case ProphetPriority:
		// Candidates: entries with the lowest priority level; the
		// runtime policy (RRIP state) picks among them (Section 3.1:
		// "the Prophet Replacement Policy first generates candidate
		// victims for the Runtime Replacement Policy, which then
		// chooses the final victim").
		minPrio := entries[0].Priority
		for _, e := range entries[1:] {
			if e.Priority < minPrio {
				minPrio = e.Priority
			}
		}
		return victimSRRIP(entries, minPrio)
	}
	panic("temporal: unknown table policy " + t.cfg.Policy.String())
}

// victimSRRIP returns the first candidate at the maximum RRPV, aging the
// candidates until one is. Candidates are the entries whose Priority is at
// most maxPrio: math.MaxUint8 admits every entry, and a set's minimum
// priority admits exactly its lowest level without building a candidate
// list. entries must hold at least one candidate.
//
// Aging takes one pass instead of one per step: SRRIP ages every candidate
// by one until some candidate reaches the maximum, so the first candidate
// at the oldest RRPV wins and every candidate ages by that RRPV's distance
// from the maximum.
func victimSRRIP(entries []Entry, maxPrio uint8) int {
	best, oldest := -1, uint8(0)
	for i := range entries {
		e := &entries[i]
		if e.Priority > maxPrio {
			continue
		}
		if e.rrpv >= srripMaxRRPV {
			return i
		}
		if best < 0 || e.rrpv > oldest {
			best, oldest = i, e.rrpv
		}
	}
	age := srripMaxRRPV - oldest
	for i := range entries {
		if entries[i].Priority <= maxPrio {
			entries[i].rrpv += age
		}
	}
	return best
}

// Resize changes the allocated ways, evicting surplus entries (victims chosen
// by the configured policy) when shrinking. Evicted entries are returned so
// resizing can feed the victim buffer.
func (t *Table) Resize(ways int) []Evicted {
	if ways < 0 {
		ways = 0
	}
	if ways > t.cfg.MaxWays {
		ways = t.cfg.MaxWays
	}
	var evs []Evicted
	if ways < t.ways {
		capPerSet := ways * t.cfg.EntriesPerWay
		for set := range t.count {
			for n := int(t.count[set]) - capPerSet; n > 0; n-- {
				vi := t.victim(t.setSlice(set))
				evs = append(evs, t.evicted(set, vi))
				t.tags[set*t.maxPerSet+vi] &^= tagLiveBit
				t.compactSet(set)
			}
		}
	}
	t.ways = ways
	return evs
}

// compactSet shifts a set's live entries to the front of its window,
// preserving their order, and shrinks the live count accordingly. Entries
// and tag words move in lock-step; tag words beyond the new count are
// cleared so stale ones cannot match.
func (t *Table) compactSet(set int) {
	base := set * t.maxPerSet
	tags := t.setTags(set)
	n := 0
	for i, tg := range tags {
		if tg&tagLiveBit != 0 {
			if n != i {
				t.entries[base+n] = t.entries[base+i]
				tags[n] = tg
			}
			n++
		}
	}
	clear(tags[n:])
	t.count[set] = int32(n)
}
