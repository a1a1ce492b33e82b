package temporal

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"prophet/internal/recycle"
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

// A slot's tag word packs everything but its target and priority: the
// 10-bit tag in bits 0-9, the 2-bit SRRIP re-reference prediction value
// (RRPV) in bits 10-11, and the live bit in bit 15. Bits 12-14 are spare;
// the priority does not fit them, since Equation 2's n may be up to 8.
const (
	rrpvShift  = tagBits
	rrpvMask   = srripMaxRRPV << rrpvShift
	tagLiveBit = 1 << 15
	// keyMask is what a probe compares: the tag and the live bit. A
	// zero tag word can never match one.
	keyMask = tagMask | tagLiveBit
)

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
// Storage is three flat arrays of Sets x (MaxWays x EntriesPerWay) slots:
// a 4-byte target, a 2-byte tag word (tag, RRPV and live bit) and a 1-byte
// Prophet priority per slot, 7 bytes in all — 1.3125 MiB at the Table 1
// geometry. Set s occupies the window starting at s*maxPerSet with count[s]
// live slots. Flat backing arrays cost a fixed number of allocations per
// table instead of one (growing) slice per hot set, and keep a set's tag
// words on adjacent cache lines: probes and SRRIP victim selection scan
// only those, and only ProphetPriority reads the priority bytes.
type Table struct {
	cfg       TableConfig
	ways      int
	setBits   uint
	maxPerSet int
	entries   []uint32 // 31-bit compressed target per slot; flat: Sets windows of maxPerSet
	tags      []uint16 // tag word per slot: the only copy of tag, RRPV and live bit
	prios     []uint8  // Prophet priority per slot (Equation 2's n bits)
	count     []int32  // live slots per set (the old per-set slice length)
	stats     TableStats
	hawkeye   *hawkeyeState // non-nil for MetaHawkeye
	rc        recycle.Slot
}

// tablePools recycles whole tables per geometry across runs. At the Table 1
// geometry a table's slot arrays take over a megabyte, and every engine
// constructor allocates (and the runtime zeroes) a fresh one per simulation
// — a measurable slice of short-run CPU time. Recycling is sound without
// touching those arrays: every read of a slot is bounded by count[set], and
// a slot becomes live only through a full overwrite of its target, tag word
// and priority, so clearing the small per-set count array alone restores
// the fresh-table contract. The pools are keyed by geometry alone: the policy
// is per-run state that NewTable sets, so an idle table released under one
// policy serves the next run under any other instead of sitting beside it.
var tablePools struct {
	sync.RWMutex
	m map[tableGeometry]*recycle.Pool[Table]
}

// tableGeometry is the part of a TableConfig that sizes a table's storage.
type tableGeometry struct{ sets, entriesPerWay, maxWays int }

func tablePool(cfg TableConfig) *recycle.Pool[Table] {
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
		tablePools.m = map[tableGeometry]*recycle.Pool[Table]{}
	}
	if p = tablePools.m[g]; p == nil {
		p = recycle.New(func() *Table { return newTableStorage(g) }, func(t *Table) *recycle.Slot { return &t.rc })
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
	t := tablePool(cfg).Get()
	t.reset(cfg, ways)
	return t
}

// newTableStorage allocates an empty table of geometry g.
func newTableStorage(g tableGeometry) *Table {
	maxPerSet := g.maxWays * g.entriesPerWay
	return &Table{
		setBits:   uint(bits.TrailingZeros(uint(g.sets))),
		maxPerSet: maxPerSet,
		entries:   make([]uint32, g.sets*maxPerSet),
		tags:      make([]uint16, g.sets*maxPerSet),
		prios:     make([]uint8, g.sets*maxPerSet),
		count:     make([]int32, g.sets),
	}
}

// reset readies a new or pooled table of cfg's geometry for a run under
// cfg's policy: the observable state of a fresh table with the given ways,
// which NewTable has already clamped. A pooled table's slot arrays stay
// dirty on purpose: no code path reads a slot at index >= count[set] within
// a set's window, and slots enter the live window only via a full write of
// all three, so stale contents (a previous policy's priorities and RRPVs
// included) are unobservable.
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
	tablePool(t.cfg).Put(t)
}

// Config returns the table geometry.
func (t *Table) Config() TableConfig { return t.cfg }

// Ways returns the LLC ways currently allocated to metadata.
func (t *Table) Ways() int { return t.ways }

// Stats returns a copy of the table counters.
func (t *Table) Stats() TableStats { return t.stats }

// setTags returns the tag words of one set's live window.
func (t *Table) setTags(set int) []uint16 {
	base := set * t.maxPerSet
	return t.tags[base : base+int(t.count[set])]
}

// evicted returns the displacement record of slot i of set. Its source key
// is rebuilt from the set and the slot's tag word, so it must be taken
// before the slot is overwritten.
func (t *Table) evicted(set, i int) Evicted {
	j := set*t.maxPerSet + i
	src := uint32(set) | uint32(t.tags[j]&tagMask)<<t.setBits
	return Evicted{Src: src, Target: t.entries[j], Priority: t.prios[j], Valid: true}
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
		j := set*t.maxPerSet + i
		t.stats.Hits++
		t.tags[j] &^= rrpvMask
		return t.entries[j], true
	}
	return 0, false
}

// findSlot scans the tag words for a live entry with the given tag and
// returns its slot within the set, or -1. Scanning 2-byte tag words instead
// of the 4-byte targets keeps the (up to 96-entry) probe inside three cache
// lines.
func (t *Table) findSlot(set int, tag uint16) int {
	want := tag | tagLiveBit
	for i, tg := range t.setTags(set) {
		if tg&keyMask == want {
			return i
		}
	}
	return -1
}

// Peek is Lookup without replacement-state side effects.
func (t *Table) Peek(src uint32) (target uint32, ok bool) {
	set, tag := t.locate(src)
	if i := t.findSlot(set, tag); i >= 0 {
		return t.entries[set*t.maxPerSet+i], true
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
		j := base + i
		ev := Evicted{}
		if t.entries[j] != target {
			ev = Evicted{Src: t.cfg.SrcKey(src), Target: t.entries[j], Priority: t.prios[j], Valid: true}
		}
		t.entries[j] = target
		t.prios[j] = priority
		t.tags[j] &^= rrpvMask
		t.stats.Updates++
		return ev
	}
	t.stats.Insertions++
	insertRRPV := uint16(srripInsertRRPV)
	if t.hawkeye != nil {
		// Hawkeye classification: prematurely evicted tags come back
		// protected; unknown tags come in cache-averse.
		if t.hawkeye.friendly(set, tag) {
			insertRRPV = 0
		} else {
			insertRRPV = srripMaxRRPV
		}
	}
	word := tag | tagLiveBit | insertRRPV<<rrpvShift
	n := int(t.count[set])
	if n < capPerSet {
		t.entries[base+n], t.tags[base+n], t.prios[base+n] = target, word, priority
		t.count[set]++
		return Evicted{}
	}
	// Replacement. The victim's record and ghost read its tag word, so
	// both come before the overwrite.
	vi := t.victim(base, n)
	ev := t.evicted(set, vi)
	if t.hawkeye != nil {
		t.hawkeye.observeEviction(set, t.tags[base+vi]&tagMask)
	}
	t.entries[base+vi], t.tags[base+vi], t.prios[base+vi] = target, word, priority
	t.stats.Replacements++
	return ev
}

// RRPVBits is the width of a slot's SRRIP re-reference prediction value,
// the replacement state MetaSRRIP keeps per metadata entry.
const RRPVBits = 2

const (
	srripMaxRRPV    = 1<<RRPVBits - 1
	srripInsertRRPV = 2
)

// victim selects the slot to replace among the n live slots of the set
// whose window starts at base, according to the configured policy.
func (t *Table) victim(base, n int) int {
	tags := t.tags[base : base+n]
	switch t.cfg.Policy {
	case MetaSRRIP, MetaHawkeye:
		return victimSRRIP(tags)
	case ProphetPriority:
		return victimPriority(tags, t.prios[base:base+n])
	}
	panic("temporal: unknown table policy " + t.cfg.Policy.String())
}

// victimSRRIP returns the first slot at the maximum RRPV, aging the set's
// tag words until one is. It reads and writes the tag words alone.
//
// Aging takes one pass instead of one per step: SRRIP ages every slot by
// one until some slot reaches the maximum, so the first slot at the oldest
// RRPV wins and every slot ages by that RRPV's distance from the maximum.
// No RRPV exceeds the oldest, so adding that distance cannot carry out of
// the RRPV field.
func victimSRRIP(tags []uint16) int {
	best, oldest := 0, uint16(0)
	for i, tg := range tags {
		r := tg & rrpvMask
		if r == rrpvMask {
			return i
		}
		if r > oldest {
			best, oldest = i, r
		}
	}
	age := rrpvMask - oldest
	for i := range tags {
		tags[i] += age
	}
	return best
}

// victimPriority is the paper's profile-guided choice: the candidates are
// the slots at the set's lowest priority level, and SRRIP picks among them
// as victimSRRIP picks among a whole set (Section 3.1: "the Prophet
// Replacement Policy first generates candidate victims for the Runtime
// Replacement Policy, which then chooses the final victim").
func victimPriority(tags []uint16, prios []uint8) int {
	prios = prios[:len(tags)]
	low := slices.Min(prios)
	best, oldest := -1, uint16(0)
	for i, tg := range tags {
		if prios[i] != low {
			continue
		}
		r := tg & rrpvMask
		if r == rrpvMask {
			return i
		}
		if best < 0 || r > oldest {
			best, oldest = i, r
		}
	}
	age := rrpvMask - oldest
	for i := range tags {
		if prios[i] == low {
			tags[i] += age
		}
	}
	return best
}

// Resize changes the allocated ways, evicting surplus entries (victims chosen
// by the configured policy) when shrinking. Each displaced entry is passed
// to evicted, in eviction order, unless evicted is nil; nothing is
// collected, so a shrink allocates nothing.
func (t *Table) Resize(ways int, evicted func(Evicted)) {
	if ways < 0 {
		ways = 0
	}
	if ways > t.cfg.MaxWays {
		ways = t.cfg.MaxWays
	}
	if ways < t.ways {
		capPerSet := ways * t.cfg.EntriesPerWay
		for set := range t.count {
			for n := int(t.count[set]) - capPerSet; n > 0; n-- {
				vi := t.victim(set*t.maxPerSet, int(t.count[set]))
				if evicted != nil {
					evicted(t.evicted(set, vi))
				}
				t.tags[set*t.maxPerSet+vi] &^= tagLiveBit
				t.compactSet(set)
			}
		}
	}
	t.ways = ways
}

// compactSet shifts a set's live entries to the front of its window,
// preserving their order, and shrinks the live count accordingly. Targets,
// tag words and priorities move in lock-step; tag words beyond the new
// count are cleared so stale ones cannot match.
func (t *Table) compactSet(set int) {
	base := set * t.maxPerSet
	tags := t.setTags(set)
	n := 0
	for i, tg := range tags {
		if tg&tagLiveBit != 0 {
			if n != i {
				t.entries[base+n] = t.entries[base+i]
				t.prios[base+n] = t.prios[base+i]
				tags[n] = tg
			}
			n++
		}
	}
	clear(tags[n:])
	t.count[set] = int32(n)
}
