package temporal

import (
	"fmt"
	"math"
	"testing"

	"prophet/internal/mem"
)

// refTable is the metadata table as it stood with 16-byte entries, frozen as
// the reference for the 7-byte-slot Table: each entry carries its own tag,
// valid bit and recency stamp beside the tag words, Insert keeps its
// free-slot scan, and SRRIP ages one step at a time with a recency fallback.
// Only the pooling is left out.
type refTable struct {
	cfg       TableConfig
	ways      int
	setBits   uint
	maxPerSet int
	entries   []refEntry
	tags      []uint16
	count     []int32
	clock     uint64
	stats     TableStats
	hawkeye   *hawkeyeState
}

type refEntry struct {
	Tag      uint16
	Target   uint32
	Priority uint8
	valid    bool
	rrpv     uint8
	last     uint32
}

type refEvicted struct {
	Set      int
	Tag      uint16
	Target   uint32
	Priority uint8
	Valid    bool
}

func newRefTable(cfg TableConfig, ways int) *refTable {
	ways = max(0, min(ways, cfg.MaxWays))
	setBits := uint(0)
	for 1<<setBits < cfg.Sets {
		setBits++
	}
	maxPerSet := cfg.MaxWays * cfg.EntriesPerWay
	t := &refTable{
		cfg: cfg, ways: ways, setBits: setBits, maxPerSet: maxPerSet,
		entries: make([]refEntry, cfg.Sets*maxPerSet),
		tags:    make([]uint16, cfg.Sets*maxPerSet),
		count:   make([]int32, cfg.Sets),
	}
	if cfg.Policy == MetaHawkeye {
		t.hawkeye = newHawkeyeState()
	}
	return t
}

func (t *refTable) setSlice(set int) []refEntry {
	base := set * t.maxPerSet
	return t.entries[base : base+int(t.count[set])]
}

func (t *refTable) Live() int {
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

func (t *refTable) locate(src uint32) (set int, tag uint16) {
	return int(src & uint32(t.cfg.Sets-1)), uint16((src >> t.setBits) & tagMask)
}

func (t *refTable) findSlot(set int, tag uint16) int {
	base := set * t.maxPerSet
	for i, tg := range t.tags[base : base+int(t.count[set])] {
		if tg == tag|tagLiveBit {
			return i
		}
	}
	return -1
}

func (t *refTable) Lookup(src uint32) (uint32, bool) {
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

func (t *refTable) Peek(src uint32) (uint32, bool) {
	set, tag := t.locate(src)
	if i := t.findSlot(set, tag); i >= 0 {
		return t.entries[set*t.maxPerSet+i].Target, true
	}
	return 0, false
}

func (t *refTable) Insert(src, target uint32, priority uint8) refEvicted {
	capPerSet := t.ways * t.cfg.EntriesPerWay
	if capPerSet == 0 {
		return refEvicted{}
	}
	set, tag := t.locate(src)
	base := set * t.maxPerSet
	t.clock++
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
	if match >= 0 {
		e := &t.entries[base+match]
		ev := refEvicted{}
		if e.Target != target {
			ev = refEvicted{Set: set, Tag: e.Tag, Target: e.Target, Priority: e.Priority, Valid: true}
		}
		e.Target, e.Priority, e.rrpv, e.last = target, priority, 0, uint32(t.clock)
		t.stats.Updates++
		return ev
	}
	entries := t.setSlice(set)
	t.stats.Insertions++
	insertRRPV := uint8(srripInsertRRPV)
	if t.hawkeye != nil {
		if t.hawkeye.friendly(set, tag) {
			insertRRPV = 0
		} else {
			insertRRPV = srripMaxRRPV
		}
	}
	fresh := refEntry{Tag: tag, Target: target, Priority: priority, valid: true, rrpv: insertRRPV, last: uint32(t.clock)}
	if free >= 0 {
		entries[free] = fresh
		t.tags[base+free] = tag | tagLiveBit
		return refEvicted{}
	}
	if len(entries) < capPerSet {
		t.entries[base+len(entries)] = fresh
		t.tags[base+len(entries)] = tag | tagLiveBit
		t.count[set]++
		return refEvicted{}
	}
	vi := t.victim(entries)
	ev := refEvicted{Set: set, Tag: entries[vi].Tag, Target: entries[vi].Target, Priority: entries[vi].Priority, Valid: true}
	if t.hawkeye != nil {
		t.hawkeye.observeEviction(set, entries[vi].Tag)
	}
	entries[vi] = fresh
	t.tags[base+vi] = tag | tagLiveBit
	t.stats.Replacements++
	return ev
}

func (t *refTable) victim(entries []refEntry) int {
	if t.cfg.Policy != ProphetPriority {
		return refVictimSRRIP(entries, math.MaxUint8)
	}
	minPrio := entries[0].Priority
	for _, e := range entries[1:] {
		minPrio = min(minPrio, e.Priority)
	}
	return refVictimSRRIP(entries, minPrio)
}

func refVictimLRU(entries []refEntry, maxPrio uint8) int {
	best := -1
	for i := range entries {
		if entries[i].Priority <= maxPrio && (best < 0 || entries[i].last < entries[best].last) {
			best = i
		}
	}
	return best
}

func refVictimSRRIP(entries []refEntry, maxPrio uint8) int {
	for {
		for i := range entries {
			if entries[i].Priority <= maxPrio && entries[i].rrpv >= srripMaxRRPV {
				return i
			}
		}
		aged := false
		for i := range entries {
			if entries[i].Priority <= maxPrio && entries[i].rrpv < srripMaxRRPV {
				entries[i].rrpv++
				aged = true
			}
		}
		if !aged {
			return refVictimLRU(entries, maxPrio)
		}
	}
}

func (t *refTable) Resize(ways int) []refEvicted {
	ways = max(0, min(ways, t.cfg.MaxWays))
	var evs []refEvicted
	if ways < t.ways {
		capPerSet := ways * t.cfg.EntriesPerWay
		for set := range t.count {
			for refCountValid(t.setSlice(set)) > capPerSet {
				entries := t.setSlice(set)
				e := &entries[t.victim(entries)]
				evs = append(evs, refEvicted{Set: set, Tag: e.Tag, Target: e.Target, Priority: e.Priority, Valid: true})
				e.valid, e.rrpv, e.last = false, srripMaxRRPV, 0
				t.compactSet(set)
			}
		}
	}
	t.ways = ways
	return evs
}

func refCountValid(entries []refEntry) int {
	n := 0
	for i := range entries {
		if entries[i].valid {
			n++
		}
	}
	return n
}

func (t *refTable) compactSet(set int) {
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

// key is the reference's eviction record in the Evicted shape.
func (t *refTable) key(ev refEvicted) Evicted {
	if !ev.Valid {
		return Evicted{}
	}
	return Evicted{Src: uint32(ev.Tag)<<t.setBits | uint32(ev.Set), Target: ev.Target, Priority: ev.Priority, Valid: true}
}

// TestTableMatchesReference drives the table and the frozen 16-byte reference
// with the same random Insert, Lookup, Peek and Resize operations, shrinks
// and regrows included, and requires every target, eviction record, counter,
// live count and way count to match after every operation. Sources mostly
// come from a pool a few times the table's capacity, so sets fill, hit and
// replace; the rest range over the whole index space, so tags alias.
func TestTableMatchesReference(t *testing.T) {
	geoms := []TableConfig{
		{Sets: 4, EntriesPerWay: 2, MaxWays: 4},
		{Sets: 16, EntriesPerWay: 3, MaxWays: 3},
	}
	for _, policy := range []Policy{MetaSRRIP, ProphetPriority, MetaHawkeye} {
		for _, geom := range geoms {
			for seed := range uint64(4) {
				cfg := geom
				cfg.Policy = policy
				name := fmt.Sprintf("%s/sets=%d/seed=%d", policy, cfg.Sets, seed)
				t.Run(name, func(t *testing.T) { checkTableAgainstReference(t, cfg, seed) })
			}
		}
	}
}

func checkTableAgainstReference(t *testing.T, cfg TableConfig, seed uint64) {
	rng := mem.NewPRNG(seed + 1)
	ways := rng.Intn(cfg.MaxWays + 1)
	driveAgainstReference(t, NewTable(cfg, ways), newRefTable(cfg, ways), rng)
}

// TestTableRecycledAcrossPolicies: tables are pooled by geometry alone, so a
// table released under one policy is taken back under another. The
// recycled table must reuse the released backing array and then match a
// fresh reference table of the new policy on a seeded sequence, Hawkeye
// ghosts included: none carried into a Hawkeye run, none kept by a table
// leaving Hawkeye.
func TestTableRecycledAcrossPolicies(t *testing.T) {
	geom := TableConfig{Sets: 16, EntriesPerWay: 3, MaxWays: 3}
	for _, tc := range []struct{ from, to Policy }{
		{MetaSRRIP, ProphetPriority},
		{MetaSRRIP, MetaHawkeye},
		{MetaHawkeye, MetaSRRIP},
		{MetaHawkeye, MetaHawkeye},
	} {
		t.Run(fmt.Sprintf("%s-to-%s", tc.from, tc.to), func(t *testing.T) {
			from, to := geom, geom
			from.Policy, to.Policy = tc.from, tc.to
			// Fill the table under the first policy until it replaces,
			// so its slots, RRPVs and any ghosts are all dirty.
			old := NewTable(from, from.MaxWays)
			rng := mem.NewPRNG(7)
			for range 4 * from.MaxEntries() {
				old.Insert(uint32(rng.Intn(8*from.MaxEntries())), uint32(rng.Intn(64)), uint8(rng.Intn(8)))
			}
			if old.Stats().Replacements == 0 {
				t.Fatal("the first run never replaced")
			}
			backing := &old.entries[0]
			old.Release()

			ways := 2
			tb := NewTable(to, ways)
			if tb != old || &tb.entries[0] != backing {
				t.Fatal("the released table's backing array was not reused")
			}
			if tb.Config() != to || (tb.hawkeye != nil) != (tc.to == MetaHawkeye) {
				t.Fatalf("recycled table runs %s with hawkeye state %v, want %s", tb.Config().Policy, tb.hawkeye != nil, tc.to)
			}
			driveAgainstReference(t, tb, newRefTable(to, ways), mem.NewPRNG(11))
		})
	}
}

// resizeEvicted resizes tb and returns the entries the resize displaced.
func resizeEvicted(tb *Table, ways int) []Evicted {
	var evs []Evicted
	tb.Resize(ways, func(e Evicted) { evs = append(evs, e) })
	return evs
}

// driveAgainstReference runs the random operation sequence of
// TestTableMatchesReference on tb and ref, which must start equivalent, and
// releases tb at the end.
func driveAgainstReference(t *testing.T, tb *Table, ref *refTable, rng *mem.PRNG) {
	t.Helper()
	cfg := tb.Config()
	defer func() { tb.Release() }()
	pool := uint32(3 * cfg.MaxEntries())
	var resizes, replacements int
	for op := range 20_000 {
		src := uint32(rng.Intn(int(pool)))
		if rng.Intn(8) == 0 {
			src = uint32(rng.Uint64()) & MaxIndex
		}
		switch r := rng.Intn(100); {
		case r < 45:
			target, prio := uint32(rng.Intn(64)), uint8(rng.Intn(8))
			got, want := tb.Insert(src, target, prio), ref.key(ref.Insert(src, target, prio))
			if got != want {
				t.Fatalf("op %d Insert(%#x, %d, %d) = %+v, reference %+v", op, src, target, prio, got, want)
			}
		case r < 75:
			got, ok := tb.Lookup(src)
			want, wantOK := ref.Lookup(src)
			if got != want || ok != wantOK {
				t.Fatalf("op %d Lookup(%#x) = %d,%v, reference %d,%v", op, src, got, ok, want, wantOK)
			}
		case r < 97:
			got, ok := tb.Peek(src)
			want, wantOK := ref.Peek(src)
			if got != want || ok != wantOK {
				t.Fatalf("op %d Peek(%#x) = %d,%v, reference %d,%v", op, src, got, ok, want, wantOK)
			}
		case r < 99:
			ways := rng.Intn(cfg.MaxWays+3) - 1 // -1 and MaxWays+1 clamp
			got, want := resizeEvicted(tb, ways), ref.Resize(ways)
			if len(got) != len(want) {
				t.Fatalf("op %d Resize(%d) evicted %d entries, reference %d", op, ways, len(got), len(want))
			}
			for i := range got {
				if got[i] != ref.key(want[i]) {
					t.Fatalf("op %d Resize(%d) eviction %d = %+v, reference %+v", op, ways, i, got[i], ref.key(want[i]))
				}
			}
			resizes++
		default:
			// A recycled table must be observably fresh.
			ways := rng.Intn(cfg.MaxWays + 1)
			tb.Release()
			tb, ref = NewTable(cfg, ways), newRefTable(cfg, ways)
		}
		if tb.Stats() != ref.stats || tb.live() != ref.Live() || tb.Ways() != ref.ways {
			t.Fatalf("op %d: stats %+v live %d ways %d, reference %+v live %d ways %d",
				op, tb.Stats(), tb.live(), tb.Ways(), ref.stats, ref.Live(), ref.ways)
		}
		replacements = max(replacements, int(ref.stats.Replacements))
	}
	if resizes == 0 || replacements == 0 {
		t.Fatalf("%d resizes, %d replacements exercised", resizes, replacements)
	}
}
