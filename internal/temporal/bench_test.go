package temporal

import (
	"testing"

	"prophet/internal/mem"
)

// fullTable returns a Table 1 geometry table at its 8-way cap with every set
// full: sources 0..MaxEntries-1 spread evenly over the sets.
func fullTable(policy Policy) *Table {
	cfg := DefaultTableConfig()
	cfg.Policy = policy
	tb := NewTable(cfg, cfg.MaxWays)
	for src := range uint32(cfg.MaxEntries()) {
		tb.Insert(src, src+1, uint8(src%4))
	}
	return tb
}

// BenchmarkTableLookup probes a full Table 1 table, half the probes hitting
// and half missing (a miss scans the whole 96-slot set).
func BenchmarkTableLookup(b *testing.B) {
	tb := fullTable(MetaSRRIP)
	b.Cleanup(tb.Release)
	span := uint32(2 * tb.Config().MaxEntries())
	b.ReportAllocs()
	for i := uint32(0); b.Loop(); i++ {
		tb.Lookup(i * 7919 % span)
	}
}

// BenchmarkTableInsert inserts new sources into a full ProphetPriority
// table, so every insert runs the priority-candidate replacement path.
func BenchmarkTableInsert(b *testing.B) {
	tb := fullTable(ProphetPriority)
	b.Cleanup(tb.Release)
	next := uint32(tb.Config().MaxEntries())
	b.ReportAllocs()
	for i := uint32(0); b.Loop(); i++ {
		tb.Insert(next+i, i, uint8(i%4))
	}
}

// BenchmarkCompressorIndex translates a stream that cycles over 2^17
// distinct lines: the first cycle assigns indices, later ones hit.
func BenchmarkCompressorIndex(b *testing.B) {
	c := NewCompressor()
	b.Cleanup(c.Release)
	b.ReportAllocs()
	for i := uint64(0); b.Loop(); i++ {
		c.Index(mem.Line(i % (1 << 17) * 97))
	}
}
