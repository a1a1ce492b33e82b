package core

import (
	"testing"

	"prophet/internal/mem"
	"prophet/internal/temporal"
)

func miss(pc mem.Addr, line mem.Line) temporal.AccessEvent {
	return temporal.AccessEvent{PC: pc, Line: line, Hit: false}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Table = temporal.TableConfig{Sets: 64, EntriesPerWay: 4, MaxWays: 4}
	cfg.MVBEntries = 256
	return cfg
}

func hintsAllWays() HintSet {
	return HintSet{PC: map[mem.Addr]Hint{}, MetaWays: 4}
}

func TestHintBufferCapAndPrioritization(t *testing.T) {
	b := NewHintBuffer(2)
	hints := map[mem.Addr]Hint{
		1: {Insert: true, Priority: 1},
		2: {Insert: true, Priority: 2},
		3: {Insert: false, Priority: 0},
	}
	weight := map[mem.Addr]uint64{1: 10, 2: 100, 3: 50}
	n := b.Install(hints, weight)
	if n != 2 {
		t.Fatalf("installed %d hints, want 2", n)
	}
	if _, ok := b.Lookup(2); !ok {
		t.Error("heaviest PC missing")
	}
	if _, ok := b.Lookup(3); !ok {
		t.Error("second-heaviest PC missing")
	}
	if _, ok := b.Lookup(1); ok {
		t.Error("lightest PC should have been dropped")
	}
}

func TestHintBufferDeterministicTieBreak(t *testing.T) {
	hints := map[mem.Addr]Hint{10: {}, 20: {}, 30: {}}
	for trial := 0; trial < 10; trial++ {
		b := NewHintBuffer(2)
		b.Install(hints, nil) // all weights zero
		if _, ok := b.Lookup(10); !ok {
			t.Fatal("tie-break must prefer lower PC")
		}
		if _, ok := b.Lookup(20); !ok {
			t.Fatal("tie-break must prefer lower PC")
		}
	}
}

func TestHintSetClone(t *testing.T) {
	h := HintSet{PC: map[mem.Addr]Hint{1: {Insert: true}}, MetaWays: 3}
	c := h.Clone()
	c.PC[2] = Hint{}
	if len(h.PC) != 1 {
		t.Fatal("Clone aliases the PC map")
	}
}

func TestProphetLearnsSequence(t *testing.T) {
	p := New(testConfig(), hintsAllWays(), nil)
	pc := mem.Addr(0x400)
	seq := []mem.Line{10, 700, 33, 950, 42}
	for _, l := range seq {
		p.OnAccess(miss(pc, l))
	}
	got := p.OnAccess(miss(pc, seq[0]))
	if len(got) == 0 || got[0] != seq[1] {
		t.Fatalf("prediction = %v, want first %v", got, seq[1])
	}
}

func TestInsertionHintDiscardsPC(t *testing.T) {
	cfg := testConfig()
	hints := hintsAllWays()
	badPC := mem.Addr(0x500)
	hints.PC[badPC] = Hint{Insert: false}
	p := New(cfg, hints, nil)
	for i := 0; i < 50; i++ {
		if got := p.OnAccess(miss(badPC, mem.Line(i*3))); got != nil {
			t.Fatalf("filtered PC still prefetched %v", got)
		}
	}
	// The discard is the only thing the table sees of the filtered PC:
	// no insertion. The same misses from an unhinted PC insert.
	if n := p.TableStats().Insertions; n != 0 {
		t.Fatalf("filtered PC made %d table insertions, want 0", n)
	}
	goodPC := mem.Addr(0x540)
	for i := 0; i < 50; i++ {
		p.OnAccess(miss(goodPC, mem.Line(i*3)))
	}
	if p.TableStats().Insertions == 0 {
		t.Fatal("an unhinted PC made no insertions: the filter check above shows nothing")
	}
}

func TestInsertionFeatureOffIgnoresHint(t *testing.T) {
	cfg := testConfig()
	cfg.Features.Insertion = false
	hints := hintsAllWays()
	badPC := mem.Addr(0x500)
	hints.PC[badPC] = Hint{Insert: false}
	p := New(cfg, hints, nil)
	for i := 0; i < 10; i++ {
		p.OnAccess(miss(badPC, mem.Line(i*3)))
	}
	if p.TableStats().Insertions == 0 {
		t.Fatal("with Insertion off the filter must not apply")
	}
}

func TestReplacementPriorityProtectsHighAccuracyPC(t *testing.T) {
	cfg := testConfig()
	cfg.Degree = 1
	cfg.Features.MVB = false
	hints := hintsAllWays()
	hiPC := mem.Addr(0x600)
	loPC := mem.Addr(0x700)
	hints.PC[hiPC] = Hint{Insert: true, Priority: 3}
	hints.PC[loPC] = Hint{Insert: true, Priority: 0}
	p := New(cfg, hints, nil)
	// High-priority sequence fills part of set space.
	hiSeq := []mem.Line{0, 64, 128, 192, 256}
	for _, l := range hiSeq {
		p.OnAccess(miss(hiPC, l))
	}
	// Low-priority churn targeting the same sets (lines chosen to map to
	// set 0 of the 64-set table: multiples of 64).
	for i := 1; i < 40; i++ {
		p.OnAccess(miss(loPC, mem.Line(i*64*5)))
	}
	// High-priority correlations must survive the churn.
	got := p.OnAccess(miss(hiPC, hiSeq[0]))
	if len(got) == 0 || got[0] != hiSeq[1] {
		t.Fatalf("high-priority metadata evicted by low-priority churn: %v", got)
	}
}

func TestResizingFromCSR(t *testing.T) {
	cfg := testConfig()
	hints := hintsAllWays()
	hints.MetaWays = 2
	p := New(cfg, hints, nil)
	if p.MetaWays() != 2 {
		t.Fatalf("MetaWays = %d, want CSR's 2", p.MetaWays())
	}
	if !p.CSR().ProphetEnabled || p.CSR().MetaWays != 2 {
		t.Fatalf("CSR = %+v", p.CSR())
	}
}

func TestResizingDisableTP(t *testing.T) {
	cfg := testConfig()
	hints := hintsAllWays()
	hints.DisableTP = true
	p := New(cfg, hints, nil)
	pc := mem.Addr(0x800)
	for _, l := range []mem.Line{1, 2, 3, 1, 2, 3} {
		if got := p.OnAccess(miss(pc, l)); got != nil {
			t.Fatalf("disabled TP still prefetched %v", got)
		}
	}
	if p.TableStats().Insertions != 0 {
		t.Fatal("disabled TP trained")
	}
}

func TestResizingFeatureOffUsesMaxWays(t *testing.T) {
	cfg := testConfig()
	cfg.Features.Resizing = false
	hints := hintsAllWays()
	hints.MetaWays = 1
	p := New(cfg, hints, nil)
	if p.MetaWays() != cfg.Table.MaxWays {
		t.Fatalf("MetaWays = %d, want max %d", p.MetaWays(), cfg.Table.MaxWays)
	}
}

func TestMVBRecoversSecondPath(t *testing.T) {
	cfg := testConfig()
	cfg.Degree = 1
	hints := hintsAllWays()
	pc := mem.Addr(0x900)
	hints.PC[pc] = Hint{Insert: true, Priority: 3}
	p := New(cfg, hints, nil)
	// Sequence 1: A -> B -> C. Sequence 2: A -> B -> D. The table keeps
	// one successor of B; the MVB must keep the other.
	a, b, c, d := mem.Line(100), mem.Line(200), mem.Line(300), mem.Line(400)
	run := func(third mem.Line) {
		p.OnAccess(miss(pc, a))
		p.OnAccess(miss(pc, b))
		p.OnAccess(miss(pc, third))
	}
	run(c)
	run(d) // B->D replaces B->C in the table; C's entry evicted to MVB? No:
	// updates replace in place, so force churn through repeated alternation.
	run(c)
	run(d)
	got := p.OnAccess(miss(pc, b))
	found := map[mem.Line]bool{}
	for _, l := range got {
		found[l] = true
	}
	if !found[c] && !found[d] {
		t.Fatalf("no successor of B prefetched: %v", got)
	}
	if !(found[c] && found[d]) {
		t.Fatalf("MVB did not supply the alternate path: got %v, want both %v and %v", got, c, d)
	}
}

func TestMVBInsertionRuleSkipsPriorityZero(t *testing.T) {
	vb := NewVictimBuffer(64, 4, 1)
	// The engine enforces the rule; validate the buffer contract directly:
	// entries inserted are retrievable, respecting the exclude filter.
	vb.Insert(5, 100)
	got := vb.Lookup(5, 100)
	if len(got) != 0 {
		t.Fatal("exclude filter failed")
	}
	got = vb.Lookup(5, 999)
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("Lookup = %v", got)
	}
}

func TestMVBReplacementPrefersLowCounter(t *testing.T) {
	vb := NewVictimBuffer(4, 4, 4) // single set of 4
	vb.Insert(0, 1)
	vb.Insert(0, 2)
	vb.Insert(0, 3)
	vb.Insert(0, 4)
	// Touch targets 1..3 so target 4 has the lowest counter.
	for _, tgt := range []uint32{1, 2, 3} {
		_ = tgt
	}
	vb.Lookup(0, 2) // bumps 1 (first match only? candidates=4 bumps all but exclude)
	// All except 2 bumped once; insert a new target: victim must be 2.
	vb.Insert(0, 5)
	got := vb.Lookup(0, 0xFFFFFFFF)
	for _, g := range got {
		if g == 2 {
			t.Fatalf("lowest-counter entry survived: %v", got)
		}
	}
}

func TestMVBGeometryAndStorage(t *testing.T) {
	vb := NewVictimBuffer(DefaultMVBEntries, 4, 1)
	if vb.Entries() != DefaultMVBEntries {
		t.Fatalf("Entries = %d", vb.Entries())
	}
	// Section 5.10: 65,536 entries x 43 bits = 344KB.
	if MVBEntryBits != 43 {
		t.Fatalf("MVBEntryBits = %d, want 43", MVBEntryBits)
	}
	if kb := float64(vb.Entries()*MVBEntryBits) / 8 / 1024; kb != 344 {
		t.Fatalf("MVB storage = %.1fKB, want 344KB", kb)
	}
}

func TestMVBCandidatesBudget(t *testing.T) {
	vb := NewVictimBuffer(16, 4, 2)
	vb.Insert(1, 10)
	vb.Insert(1, 20)
	vb.Insert(1, 30)
	got := vb.Lookup(1, 0xFFFFFFFF)
	if len(got) != 2 {
		t.Fatalf("candidates=2 returned %d targets", len(got))
	}
}

func TestSimplifiedConfig(t *testing.T) {
	cfg := DefaultConfig().Simplified()
	if cfg.Degree != 1 {
		t.Error("simplified TP must use degree 1")
	}
	if cfg.Features != (Features{}) {
		t.Error("simplified TP must disable all Prophet features")
	}
	p := New(cfg, HintSet{}, nil)
	if p.MetaWays() != cfg.Table.MaxWays {
		t.Errorf("simplified TP table = %d ways, want fixed max %d", p.MetaWays(), cfg.Table.MaxWays)
	}

	// The rule keeps its receiver's geometry: profiling runs on the table
	// and buffers the pipeline was configured with, not the defaults.
	custom := DefaultConfig()
	custom.Table.Sets *= 2
	custom.Table.MaxWays = 4
	custom.MVBEntries *= 2
	custom.HintBufferEntries = 64
	want := custom
	want.Degree = 1
	want.Features = Features{}
	if got := custom.Simplified(); got != want {
		t.Errorf("Simplified() = %+v, want %+v", got, want)
	}
	if custom.Degree != 4 || custom.Features != AllFeatures() {
		t.Error("Simplified changed its receiver")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MVBEntries != 65536 || cfg.MVBCandidates != 1 {
		t.Errorf("MVB config %d/%d, want 65536/1", cfg.MVBEntries, cfg.MVBCandidates)
	}
	if cfg.HintBufferEntries != 128 {
		t.Errorf("hint buffer %d, want 128", cfg.HintBufferEntries)
	}
}

func TestEngineInterfaceCompliance(t *testing.T) {
	var e temporal.Engine = New(testConfig(), hintsAllWays(), nil)
	e.PrefetchUseful(1, 2)
	e.PrefetchUseless(1, 2)
	if e.Name() != "prophet" {
		t.Error("name")
	}
}
