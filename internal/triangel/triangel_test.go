package triangel

import (
	"slices"
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
	cfg.SetDueller = false
	return cfg
}

func TestLearnsAndPredictsSequence(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x400)
	seq := []mem.Line{10, 700, 33, 950, 42, 77}
	for pass := 0; pass < 3; pass++ {
		for _, l := range seq {
			p.OnAccess(miss(pc, l))
		}
	}
	got := p.OnAccess(miss(pc, seq[0]))
	if len(got) == 0 || got[0] != seq[1] {
		t.Fatalf("prediction after training = %v, want first %v", got, seq[1])
	}
}

func TestAggressiveDegree(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x410)
	seq := []mem.Line{1, 2000, 55, 301, 999, 40}
	for pass := 0; pass < 3; pass++ {
		for _, l := range seq {
			p.OnAccess(miss(pc, l))
		}
	}
	got := p.OnAccess(miss(pc, seq[0]))
	if len(got) != 4 {
		t.Fatalf("degree-4 Triangel returned %d prefetches: %v", len(got), got)
	}
}

func TestReuseConfFiltersRandomPC(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x500)
	rng := mem.NewPRNG(2)
	// Random lines over a huge space never recur: reuse samples expire
	// past the table window (1024 entries here) and ReuseConf decays,
	// shutting insertion off for the tail of the run.
	const n = 8000
	for i := 0; i < n; i++ {
		p.OnAccess(miss(pc, mem.Line(rng.Intn(1<<22))))
	}
	if got := p.pcSlot(pc).reuseConf; got >= p.cfg.ReuseThreshold {
		t.Fatalf("ReuseConf = %d after random stream, want < %d", got, p.cfg.ReuseThreshold)
	}
	if ins := p.TableStats().Insertions; ins > n/2 {
		t.Fatalf("random stream inserted %d entries of %d; ReuseConf should have filtered the tail", ins, n)
	}
}

// TestPatternConfCollapseRejectsInterleavedPattern reproduces the Figure 1
// failure mode: a burst of useless accesses drives PatternConf to zero, after
// which genuinely pattern-bearing accesses from the same PC are rejected.
func TestPatternConfCollapseRejectsInterleavedPattern(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x600)
	// Drive PatternConf to zero with useless-prefetch feedback (red dots).
	for i := 0; i < confMax+1; i++ {
		p.PrefetchUseless(pc, 1)
	}
	if p.PatternConf(pc) != 0 {
		t.Fatalf("PatternConf = %d, want 0", p.PatternConf(pc))
	}
	before := p.TableStats().Insertions
	// A clean temporal sequence now arrives (blue stars): Triangel
	// rejects its insertion because the short-term counter is floored.
	seq := []mem.Line{10, 20, 30, 40, 50}
	for _, l := range seq {
		p.OnAccess(miss(pc, l))
	}
	if got := p.TableStats().Insertions - before; got != 0 {
		t.Fatalf("collapsed PatternConf still inserted %d entries", got)
	}
}

func TestUsefulFeedbackRestoresInsertion(t *testing.T) {
	p := New(testConfig())
	pc := mem.Addr(0x700)
	for i := 0; i < confMax+1; i++ {
		p.PrefetchUseless(pc, 1)
	}
	for i := 0; i < confInit+1; i++ {
		p.PrefetchUseful(pc, 1)
	}
	if p.PatternConf(pc) < p.cfg.PatternThreshold {
		t.Fatalf("PatternConf = %d, want >= threshold %d", p.PatternConf(pc), p.cfg.PatternThreshold)
	}
	before := p.TableStats().Insertions
	for _, l := range []mem.Line{10, 20, 30} {
		p.OnAccess(miss(pc, l))
	}
	if got := p.TableStats().Insertions - before; got == 0 {
		t.Fatal("restored PatternConf did not re-enable insertion")
	}
}

func TestSetDuellerResizesDown(t *testing.T) {
	cfg := testConfig()
	cfg.SetDueller = true
	cfg.ResizeEpoch = 500
	p := New(cfg)
	// LLC-heavy, metadata-light load: most accesses are distinct lines
	// (LLC utility) from a PC whose pattern never repeats, so the dueller
	// should shrink the table allocation.
	rng := mem.NewPRNG(3)
	pc := mem.Addr(0x800)
	for i := 0; i < 3000; i++ {
		p.OnAccess(miss(pc, mem.Line(rng.Intn(1<<22))))
	}
	if p.MetaWays() >= cfg.Ways {
		t.Fatalf("MetaWays = %d; dueller should have shrunk the metadata table", p.MetaWays())
	}
}

func TestNameAndStats(t *testing.T) {
	p := New(testConfig())
	if p.Name() != "triangel" {
		t.Error("name")
	}
	if p.MetaWays() != 4 {
		t.Errorf("MetaWays = %d", p.MetaWays())
	}
	_ = p.TableStats()
	_ = p.Table()
}

func TestZeroPCIgnoredForTraining(t *testing.T) {
	p := New(testConfig())
	p.OnAccess(miss(0, 1))
	p.OnAccess(miss(0, 2))
	if p.TableStats().Insertions != 0 {
		t.Fatal("PC-less accesses must not train")
	}
}

// TestRecycledEnginesStartFresh: New rebuilds a released engine with every
// sampler, index, cursor and Set-Dueller stack and histogram emptied, so
// nothing the last run learned reaches the next. A run's outcome shows
// little of the sampler rings (their defensive checks absorb stale
// entries), so this checks the state itself.
func TestRecycledEnginesStartFresh(t *testing.T) {
	cfg := Default()
	cfg.ResizeEpoch = 1_000
	p := New(cfg)
	rng := mem.NewPRNG(3)
	for i := range 50_000 {
		pc := mem.Addr(0x400 + 4*(i%7))
		p.OnAccess(miss(pc, mem.Line(rng.Intn(1<<16))))
	}
	d := p.dueller
	if p.patIndex.Len() == 0 || p.reuseIndex.Len() == 0 || p.patHead == 0 || p.reuseTail == 0 ||
		slices.Max(d.llcLen[:]) == 0 || slices.Max(d.metaLen[:]) == 0 || slices.Max(d.llcHist[:]) == 0 || slices.Max(d.metaHist) == 0 {
		t.Fatal("the first run left a sampler or Set-Dueller monitor empty")
	}
	p.Release()
	q := New(cfg)
	defer q.Release()
	if q != p {
		t.Fatal("the released engine was not rebuilt")
	}
	if q.patHead != 0 || q.reuseHead != 0 || q.reuseTail != 0 || q.reuseCount != 0 || q.accessTick != 0 {
		t.Errorf("ring cursors %d, %d, %d, count %d, tick %d", q.patHead, q.reuseHead, q.reuseTail, q.reuseCount, q.accessTick)
	}
	if q.patIndex.Len() != 0 || q.reuseIndex.Len() != 0 {
		t.Errorf("sampler indexes hold %d and %d lines", q.patIndex.Len(), q.reuseIndex.Len())
	}
	if slices.ContainsFunc(q.patRing, func(s patternSample) bool { return s != patternSample{} }) ||
		slices.ContainsFunc(q.reuseRing, func(s reuseSample) bool { return s != reuseSample{} }) ||
		slices.ContainsFunc(q.pcs, func(s pcState) bool { return s != pcState{} }) {
		t.Error("a sampler ring or the PC table kept an entry")
	}
	d = q.dueller
	if slices.Max(d.llcLen[:]) != 0 || slices.Max(d.metaLen[:]) != 0 || slices.Max(d.llcHist[:]) != 0 || slices.Max(d.metaHist) != 0 {
		t.Error("a Set-Dueller stack or histogram kept its contents")
	}
}
