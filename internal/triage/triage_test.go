package triage

import (
	"testing"

	"prophet/internal/mem"
	"prophet/internal/temporal"
)

func miss(pc mem.Addr, line mem.Line) temporal.AccessEvent {
	return temporal.AccessEvent{PC: pc, Line: line, Hit: false}
}

func testConfig() Config {
	cfg := Default()
	cfg.Table = temporal.TableConfig{Sets: 64, EntriesPerWay: 4, MaxWays: 4, Policy: temporal.MetaSRRIP}
	cfg.Ways = 4
	cfg.BloomResize = false
	return cfg
}

func TestLearnsTemporalSequence(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x400)
	seq := []mem.Line{10, 700, 33, 950, 42}
	// First pass: training only.
	for _, l := range seq {
		p.OnAccess(miss(pc, l))
	}
	// Second pass: each access should predict the next line.
	for i := 0; i+1 < len(seq); i++ {
		got := p.OnAccess(miss(pc, seq[i]))
		if len(got) == 0 {
			t.Fatalf("no prediction at step %d", i)
		}
		if got[0] != seq[i+1] {
			t.Fatalf("step %d predicted %v, want %v", i, got[0], seq[i+1])
		}
	}
}

func TestDegreeChasesChain(t *testing.T) {
	cfg := testConfig()
	cfg.Degree = 4
	p := New(cfg)
	pc := mem.Addr(0x400)
	seq := []mem.Line{10, 700, 33, 950, 42, 77}
	for _, l := range seq {
		p.OnAccess(miss(pc, l))
	}
	got := p.OnAccess(miss(pc, seq[0]))
	if len(got) != 4 {
		t.Fatalf("degree-4 chase returned %d lines: %v", len(got), got)
	}
	for i := 0; i < 4; i++ {
		if got[i] != seq[i+1] {
			t.Fatalf("chain step %d = %v, want %v", i, got[i], seq[i+1])
		}
	}
}

func TestNoInsertionFilter(t *testing.T) {
	// Triage inserts metadata for purely random streams too — that is its
	// defining inefficiency (Section 2.1.1).
	p := New(testConfig())
	rng := mem.NewPRNG(1)
	pc := mem.Addr(0x500)
	for i := 0; i < 100; i++ {
		p.OnAccess(miss(pc, mem.Line(rng.Intn(1<<20))))
	}
	if ins := p.TableStats().Insertions; ins < 90 {
		t.Fatalf("random stream inserted only %d entries; Triage must not filter", ins)
	}
}

func TestHitsAreNotTrained(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x600)
	p.OnAccess(temporal.AccessEvent{PC: pc, Line: 1, Hit: true})
	p.OnAccess(temporal.AccessEvent{PC: pc, Line: 2, Hit: true})
	if p.TableStats().Insertions != 0 {
		t.Fatal("L2 hits must not train the prefetcher")
	}
	// But first touches of prefetched lines are part of the miss stream.
	p.OnAccess(temporal.AccessEvent{PC: pc, Line: 3, Hit: true, HitPrefetched: true})
	p.OnAccess(temporal.AccessEvent{PC: pc, Line: 4, Hit: true, HitPrefetched: true})
	if p.TableStats().Insertions != 1 {
		t.Fatalf("prefetched-hit stream inserted %d entries, want 1", p.TableStats().Insertions)
	}
}

func TestBloomResizeShrinks(t *testing.T) {
	cfg := testConfig()
	cfg.BloomResize = true
	cfg.ResizeEpoch = 200
	p := New(cfg)
	pc := mem.Addr(0x700)
	// A tiny loop of 8 lines needs far less than the full table.
	for i := 0; i < 400; i++ {
		p.OnAccess(miss(pc, mem.Line(i%8)))
	}
	if p.MetaWays() != 1 {
		t.Fatalf("MetaWays = %d after small working set, want 1", p.MetaWays())
	}
}

func TestBloomResizeGrows(t *testing.T) {
	cfg := testConfig()
	cfg.BloomResize = true
	cfg.ResizeEpoch = 800
	p := New(cfg)
	p.Table().Resize(1, nil)
	pc := mem.Addr(0x800)
	// ~800 distinct sources per epoch need ceil(800/256) = 4 ways.
	for i := 0; i < 1600; i++ {
		p.OnAccess(miss(pc, mem.Line(i)))
	}
	if p.MetaWays() < 3 {
		t.Fatalf("MetaWays = %d after large working set, want >= 3", p.MetaWays())
	}
}

func TestNames(t *testing.T) {
	if New(testConfig()).Name() != "triage" {
		t.Error("degree-1 name")
	}
	cfg := testConfig()
	cfg.Degree = 4
	if New(cfg).Name() != "triage4" {
		t.Error("degree-4 name")
	}
}

func TestFeedbackIsNoOp(t *testing.T) {
	p := New(testConfig())
	p.PrefetchUseful(1, 2)
	p.PrefetchUseless(1, 2) // must not panic or change behaviour
}

func TestRepeatedLineNotSelfLinked(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x900)
	p.OnAccess(miss(pc, 5))
	got := p.OnAccess(miss(pc, 5))
	for _, l := range got {
		if l == 5 {
			t.Fatal("self-correlation prefetched the accessed line")
		}
	}
	if p.TableStats().Insertions != 0 {
		t.Fatal("A->A correlation was inserted")
	}
}
