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
	// MetaLRU evicts the least-recently-used entry in the set.
	MetaLRU Policy = iota
	// MetaSRRIP is the 2-bit RRIP policy Triangel uses for metadata.
	MetaSRRIP
	// ProphetPriority implements the paper's profile-guided replacement:
	// victim candidates are the entries with the lowest hint priority, and
	// the runtime policy's state (RRIP, falling back to recency) chooses
	// the final victim among them (Section 4.2).
	ProphetPriority
	// MetaHawkeye is the Hawkeye-style predictor the original Triage used
	// (Section 2.1.2): premature evictions mark entries cache-friendly and
	// protect them on re-insertion (see hawkeye.go).
	MetaHawkeye
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MetaLRU:
		return "meta-lru"
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

// Entry is one Markov metadata entry: a 10-bit tag identifying the source
// line within its set and the 31-bit compressed target that followed it.
type Entry struct {
	Tag      uint16
	Target   uint32
	Priority uint8 // Prophet replacement state (2 bits)
	valid    bool
	rrpv     uint8
	// last is the recency stamp for LRU victim choice, truncated to 32
	// bits so Entry packs into 16 bytes (1.5x the scan density of the
	// 24-byte layout). Comparisons are only meaningful among live entries
	// of one set, and only the MetaLRU policy consults them; a table would
	// need 2^32 touches before wraparound could reorder a set.
	last uint32
}

// Evicted describes a metadata entry displaced from the table.
type Evicted struct {
	Set      int
	Tag      uint16
	Target   uint32
	Priority uint8
	Valid    bool
}

// SrcKey reconstructs the (truncated) compressed source index of the evicted
// entry from its set and tag. This is the key the Multi-path Victim Buffer
// indexes with; like the hardware it is lossy beyond set+tag bits.
func (e Evicted) SrcKey(cfg TableConfig) uint32 {
	return uint32(e.Tag)<<uint(bits.TrailingZeros(uint(cfg.Sets))) | uint32(e.Set)
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
// Storage is one flat entry array of Sets x (MaxWays x EntriesPerWay) slots;
// set s occupies the window starting at s*maxPerSet with count[s] live
// slots. A flat backing array costs two allocations per table instead of one
// (growing) slice per hot set, and keeps a set's entries on adjacent cache
// lines for the per-access linear tag scans.
type Table struct {
	cfg       TableConfig
	ways      int
	setBits   uint
	maxPerSet int
	entries   []Entry  // flat: Sets consecutive windows of maxPerSet slots
	tags      []uint16 // scan accelerator: tag|tagLiveBit per live slot
	count     []int32  // live slots per set (the old per-set slice length)
	clock     uint64
	stats     TableStats
	hawkeye   *hawkeyeState // non-nil for MetaHawkeye
	free      atomic.Bool   // see recycler
}

// tagLiveBit marks a live slot in the tags accelerator array. Tags are 10
// bits, so bit 15 is free; a zero tags word can never match a probe.
const tagLiveBit = 1 << 15

// tablePools recycles whole tables per geometry across runs. At the Table 1
// geometry the entry array alone is multi-megabyte, and every engine
// constructor allocates (and the runtime zeroes) a fresh one per simulation
// — a measurable slice of short-run CPU time. Recycling is sound without
// touching that array: every read of entries/tags is bounded by count[set],
// and a slot becomes live only through a full overwrite, so clearing the
// small per-set count array alone restores the fresh-table contract.
var tablePools struct {
	sync.RWMutex
	m map[TableConfig]*recycler[Table]
}

func tablePool(cfg TableConfig) *recycler[Table] {
	tablePools.RLock()
	p := tablePools.m[cfg]
	tablePools.RUnlock()
	if p != nil {
		return p
	}
	tablePools.Lock()
	defer tablePools.Unlock()
	if tablePools.m == nil {
		tablePools.m = map[TableConfig]*recycler[Table]{}
	}
	if p = tablePools.m[cfg]; p == nil {
		p = &recycler[Table]{free: func(t *Table) *atomic.Bool { return &t.free }}
		tablePools.m[cfg] = p
	}
	return p
}

// NewTable builds a table with the given initial ways, recycling the storage
// of a previously Released table of the same geometry when one is available.
// It panics on invalid geometry (static configuration error).
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
	if t := tablePool(cfg).get(); t != nil {
		t.recycle(ways)
		return t
	}
	maxPerSet := cfg.MaxWays * cfg.EntriesPerWay
	t := &Table{
		cfg:       cfg,
		ways:      ways,
		setBits:   uint(bits.TrailingZeros(uint(cfg.Sets))),
		maxPerSet: maxPerSet,
		entries:   make([]Entry, cfg.Sets*maxPerSet),
		tags:      make([]uint16, cfg.Sets*maxPerSet),
		count:     make([]int32, cfg.Sets),
	}
	if cfg.Policy == MetaHawkeye {
		t.hawkeye = newHawkeyeState()
	}
	return t
}

// recycle restores a pooled table to the observable state of a fresh
// NewTable(cfg, ways). The entries and tags arrays stay dirty on purpose:
// no code path reads a slot at index >= count[set] within a set's window,
// and slots enter the live window only via a full Entry+tag write, so stale
// contents are unobservable. ways has already been clamped by NewTable.
func (t *Table) recycle(ways int) {
	t.ways = ways
	clear(t.count)
	t.clock = 0
	t.stats = TableStats{}
	if t.hawkeye != nil {
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
		for _, e := range t.setSlice(set) {
			if e.valid {
				n++
			}
		}
	}
	return n
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
		t.clock++
		e.rrpv = 0
		e.last = uint32(t.clock)
		return e.Target, true
	}
	return 0, false
}

// findSlot scans the tags accelerator for a live entry with the given tag
// and returns its slot within the set, or -1. Scanning 2-byte tag words
// instead of 24-byte entries keeps the (up to 96-entry) probe inside a few
// cache lines.
func (t *Table) findSlot(set int, tag uint16) int {
	base := set * t.maxPerSet
	tags := t.tags[base : base+int(t.count[set])]
	want := tag | tagLiveBit
	for i, tg := range tags {
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
func (t *Table) Insert(src, target uint32, priority uint8) Evicted {
	capPerSet := t.ways * t.cfg.EntriesPerWay
	if capPerSet == 0 {
		return Evicted{}
	}
	set, tag := t.locate(src)
	base := set * t.maxPerSet
	t.clock++
	// One scan over the tags accelerator finds an existing entry AND
	// remembers the first free slot for the miss path, fusing what used to
	// be two passes (findSlot, then a free-slot scan) into one.
	want := tag | tagLiveBit
	match, free := -1, -1
	for i, tg := range t.tags[base : base+int(t.count[set])] {
		if tg == want {
			match = i
			break
		}
		if tg&tagLiveBit == 0 && free < 0 {
			free = i
		}
	}
	// Existing entry: update target in place, reporting the displaced
	// target if it changed.
	if match >= 0 {
		e := &t.entries[base+match]
		ev := Evicted{}
		if e.Target != target {
			ev = Evicted{Set: set, Tag: e.Tag, Target: e.Target, Priority: e.Priority, Valid: true}
		}
		e.Target = target
		e.Priority = priority
		e.rrpv = 0
		e.last = uint32(t.clock)
		t.stats.Updates++
		return ev
	}
	entries := t.setSlice(set)
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
	// Free slot, remembered by the fused scan above. (Live slots ahead of
	// count only lose their tag bit transiently inside Resize, which
	// compacts before returning, so a zero word there is authoritative.)
	if free >= 0 {
		entries[free] = Entry{Tag: tag, Target: target, Priority: priority, valid: true, rrpv: insertRRPV, last: uint32(t.clock)}
		t.tags[base+free] = tag | tagLiveBit
		return Evicted{}
	}
	if len(entries) < capPerSet {
		t.entries[base+len(entries)] = Entry{Tag: tag, Target: target, Priority: priority, valid: true, rrpv: insertRRPV, last: uint32(t.clock)}
		t.tags[base+len(entries)] = tag | tagLiveBit
		t.count[set]++
		return Evicted{}
	}
	// Replacement.
	vi := t.victim(entries)
	ev := Evicted{Set: set, Tag: entries[vi].Tag, Target: entries[vi].Target, Priority: entries[vi].Priority, Valid: true}
	if t.hawkeye != nil {
		t.hawkeye.observeEviction(set, entries[vi].Tag)
	}
	entries[vi] = Entry{Tag: tag, Target: target, Priority: priority, valid: true, rrpv: insertRRPV, last: uint32(t.clock)}
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
	case MetaLRU:
		return victimLRU(entries, math.MaxUint8)
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

// victimLRU returns the least recently used candidate. Candidates are the
// entries whose Priority is at most maxPrio: math.MaxUint8 admits every
// entry, and a set's minimum priority admits exactly its lowest level
// without building a candidate list.
func victimLRU(entries []Entry, maxPrio uint8) int {
	best := -1
	for i := range entries {
		if entries[i].Priority > maxPrio {
			continue
		}
		if best < 0 || entries[i].last < entries[best].last {
			best = i
		}
	}
	return best
}

// victimSRRIP returns the first candidate (as for victimLRU) at the maximum
// RRPV, aging the candidates until one is.
func victimSRRIP(entries []Entry, maxPrio uint8) int {
	for {
		for i := range entries {
			if entries[i].Priority > maxPrio {
				continue
			}
			if entries[i].rrpv >= srripMaxRRPV {
				return i
			}
		}
		aged := false
		for i := range entries {
			if entries[i].Priority > maxPrio {
				continue
			}
			if entries[i].rrpv < srripMaxRRPV {
				entries[i].rrpv++
				aged = true
			}
		}
		if !aged {
			// All candidates already at max but loop missed them
			// (defensive); fall back to recency.
			return victimLRU(entries, maxPrio)
		}
	}
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
			for countValid(t.setSlice(set)) > capPerSet {
				entries := t.setSlice(set)
				vi := t.victim(entries)
				e := &entries[vi]
				evs = append(evs, Evicted{Set: set, Tag: e.Tag, Target: e.Target, Priority: e.Priority, Valid: true})
				e.valid = false
				e.rrpv = srripMaxRRPV
				e.last = 0
				// Compact: drop invalid entries, preserving order.
				t.compactSet(set)
			}
		}
	}
	t.ways = ways
	return evs
}

func countValid(entries []Entry) int {
	n := 0
	for i := range entries {
		if entries[i].valid {
			n++
		}
	}
	return n
}

// compactSet shifts a set's valid entries to the front of its window,
// preserving their order, and shrinks the live count accordingly. The tags
// accelerator moves in lock-step; slots beyond the new count are cleared so
// stale tag words cannot match.
func (t *Table) compactSet(set int) {
	base := set * t.maxPerSet
	entries := t.setSlice(set)
	n := 0
	for i := range entries {
		if entries[i].valid {
			if n != i {
				entries[n] = entries[i]
				t.tags[base+n] = t.tags[base+i]
			}
			n++
		}
	}
	for i := n; i < len(entries); i++ {
		t.tags[base+i] = 0
	}
	t.count[set] = int32(n)
}
