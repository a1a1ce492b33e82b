package temporal

import (
	"testing"

	"prophet/internal/mem"
)

// candidateVictim is the ProphetPriority victim choice as a candidate-slice
// filter: mark the entries at the set's lowest priority, then run SRRIP over
// the marked ones, aging them one step at a time. It is the reference the
// allocation-free, one-pass Table.victim must match.
func candidateVictim(entries []refEntry) int {
	minPrio := entries[0].Priority
	for _, e := range entries[1:] {
		minPrio = min(minPrio, e.Priority)
	}
	cand := make([]bool, len(entries))
	for i := range entries {
		cand[i] = entries[i].Priority == minPrio
	}
	for {
		for i := range entries {
			if cand[i] && entries[i].rrpv >= srripMaxRRPV {
				return i
			}
		}
		for i := range entries {
			if cand[i] && entries[i].rrpv < srripMaxRRPV {
				entries[i].rrpv++
			}
		}
	}
}

// setEntries unpacks the live slots of one set from the table's three
// arrays into reference entries: tag and RRPV from the tag word, target and
// priority from their own arrays.
func setEntries(tb *Table, set int) []refEntry {
	base := set * tb.maxPerSet
	out := make([]refEntry, tb.count[set])
	for i := range out {
		tg := tb.tags[base+i]
		out[i] = refEntry{
			Tag: tg & tagMask, Target: tb.entries[base+i], Priority: tb.prios[base+i],
			valid: tg&tagLiveBit != 0, rrpv: uint8(tg & rrpvMask >> rrpvShift),
		}
	}
	return out
}

// TestProphetVictimMatchesCandidateSlice drives a ProphetPriority table with
// a random mix of lookups, updates and evicting inserts. Before every insert
// the set is unpacked and the reference picks its victim on the copy; the
// table must evict the same entry and leave the rest of the set, RRIP ages
// included, exactly as the reference left the copy.
func TestProphetVictimMatchesCandidateSlice(t *testing.T) {
	tb := NewTable(smallTable(ProphetPriority), 2) // 4 entries per set
	rng := mem.NewPRNG(7)
	replacements := 0
	for op := range 50_000 {
		src := uint32(rng.Intn(16 * 12)) // ~12 tags per set, 4 fit
		if rng.Intn(3) == 0 {
			tb.Lookup(src)
			continue
		}
		set, tag := tb.locate(src)
		want := setEntries(tb, set)
		before := tb.Stats().Replacements
		prio := uint8(rng.Intn(4))
		ev := tb.Insert(src, uint32(op), prio)
		if tb.Stats().Replacements == before {
			continue
		}
		replacements++
		vi := candidateVictim(want)
		wantSrc := uint32(want[vi].Tag)<<tb.setBits | uint32(set)
		if !ev.Valid || ev.Src != wantSrc || ev.Target != want[vi].Target || ev.Priority != want[vi].Priority {
			t.Fatalf("op %d: evicted %+v, reference victim %+v with src %#x", op, ev, want[vi], wantSrc)
		}
		want[vi] = refEntry{Tag: tag, Target: uint32(op), Priority: prio, valid: true, rrpv: srripInsertRRPV}
		got := setEntries(tb, set)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d: slot %d = %+v, reference %+v (victim slot %d)", op, i, got[i], want[i], vi)
			}
		}
	}
	if replacements < 1000 {
		t.Fatalf("only %d replacements exercised", replacements)
	}
}

// TestProphetInsertDoesNotAllocate pins the replacement path of a full
// priority set to zero heap allocations.
func TestProphetInsertDoesNotAllocate(t *testing.T) {
	cfg := smallTable(ProphetPriority)
	tb := NewTable(cfg, cfg.MaxWays)
	perSet := cfg.MaxWays * cfg.EntriesPerWay
	src := uint32(0)
	for range perSet {
		tb.Insert(src, src, uint8(src%4))
		src += uint32(cfg.Sets) // same set, next tag
	}
	before := tb.Stats().Replacements
	allocs := testing.AllocsPerRun(200, func() {
		tb.Insert(src, src, uint8(src%3))
		src += uint32(cfg.Sets)
	})
	if allocs != 0 {
		t.Fatalf("Insert into a full priority set allocates %.1f times", allocs)
	}
	if tb.Stats().Replacements == before {
		t.Fatal("no replacement exercised")
	}
}
