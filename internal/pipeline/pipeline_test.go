package pipeline

import (
	"runtime"
	"testing"

	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/registry"
	"prophet/internal/rpg2"
	"prophet/internal/sim"
	"prophet/internal/triangel"
	"prophet/internal/workloads"
)

// testWorkload is a small, fast workload with a clean temporal pattern and a
// junk PC, scaled for quick runs.
func testWorkload() workloads.Workload {
	return workloads.Workload{Name: "pipe-test", Spec: workloads.Spec{
		Name: "pipe-test",
		Seed: 42,
		Patterns: []workloads.PatternSpec{
			{Kind: workloads.Temporal, Weight: 0.45, SeqLines: 3000, Gap: 3, PCSeed: 11},
			{Kind: workloads.PointerChase, Weight: 0.3, SeqLines: 2500, Gap: 3, PCSeed: 12},
			{Kind: workloads.RandomAccess, Weight: 0.25, Gap: 3, PCSeed: 13},
		},
		Records: 50_000,
	}}
}

func testFactory() SourceFactory {
	w := testWorkload()
	return func() mem.Source { return w.Source(0) }
}

func TestBaselineAndSchemesRun(t *testing.T) {
	cfg := Default()
	f := testFactory()
	base := RunBaseline(cfg.Sim, f())
	if base.IPC() <= 0 {
		t.Fatal("baseline IPC")
	}
	tg := runTriage(cfg.Sim, f())
	tr := RunTriangel(cfg.Sim, triangel.Default(), f())
	if tg.TPIssued == 0 || tr.TPIssued == 0 {
		t.Fatal("hardware prefetchers issued nothing")
	}
}

func TestProphetPipelineImproves(t *testing.T) {
	cfg := Default()
	f := testFactory()
	base := RunBaseline(cfg.Sim, f())
	st, p := RunProphetDirect(cfg, f)
	if st.IPC() <= base.IPC() {
		t.Fatalf("Prophet (%.4f) did not beat baseline (%.4f) on a temporal workload", st.IPC(), base.IPC())
	}
	res := p.Analyze()
	if len(res.Hints.PC) == 0 {
		t.Fatal("no hints generated")
	}
	// The random PC must receive a do-not-insert hint.
	filtered := 0
	for _, h := range res.Hints.PC {
		if !h.Insert {
			filtered++
		}
	}
	if filtered == 0 {
		t.Fatal("EL_ACC filter marked no PC; the random stream should qualify")
	}
}

func TestProfileCollectsCounters(t *testing.T) {
	p := NewProphet(Default())
	counters := p.Profile(testFactory()())
	if len(counters.PC) == 0 {
		t.Fatal("no PC counters collected")
	}
	if counters.Insertions == 0 {
		t.Fatal("no table insertions recorded")
	}
}

func TestLearningAccumulates(t *testing.T) {
	p := NewProphet(Default())
	if p.ProfileState().Loops != 0 {
		t.Fatal("fresh pipeline has loops")
	}
	p.ProfileAndLearn(testFactory()())
	p.ProfileAndLearn(testFactory()())
	if p.ProfileState().Loops != 2 {
		t.Fatalf("Loops = %d", p.ProfileState().Loops)
	}
}

func TestAnalyzeIsCached(t *testing.T) {
	p := NewProphet(Default())
	p.ProfileAndLearn(testFactory()())
	r1 := p.Analyze()
	r2 := p.Analyze()
	if &r1.Hints.PC == &r2.Hints.PC {
		// Maps compare by pointer identity here: same cached result.
		return
	}
	// Re-learning invalidates the cache.
	p.ProfileAndLearn(testFactory()())
	_ = p.Analyze()
}

func TestFeatureSubsetsRun(t *testing.T) {
	p := NewProphet(Default())
	p.ProfileAndLearn(testFactory()())
	for _, f := range []core.Features{
		{},
		{Replacement: true},
		{Replacement: true, Insertion: true},
		core.AllFeatures(),
	} {
		st := p.RunWithFeatures(f, testFactory()())
		if st.Core.MemRecords == 0 {
			t.Fatalf("features %+v: empty run", f)
		}
	}
}

func TestRPG2NoKernelsFallsBackToBaseline(t *testing.T) {
	cfg := Default()
	// Pure pointer chase: no stride kernels.
	w := workloads.Workload{Name: "chase", Spec: workloads.Spec{
		Name:     "chase",
		Seed:     7,
		Patterns: []workloads.PatternSpec{{Kind: workloads.PointerChase, Weight: 1, SeqLines: 2000, Gap: 3}},
		Records:  30_000,
	}}
	f := func() mem.Source { return w.Source(0) }
	res := rpg2.Evaluate(cfg.Sim, sim.Opts{}, f, nil)
	if res.Kernels != 0 {
		t.Fatalf("pointer chase yielded %d kernels", res.Kernels)
	}
	base := RunBaseline(cfg.Sim, f())
	if res.Stats.IPC() != base.IPC() {
		t.Fatalf("no-kernel RPG2 (%.4f) must equal baseline (%.4f)", res.Stats.IPC(), base.IPC())
	}
}

func TestRPG2FindsStrideKernels(t *testing.T) {
	cfg := Default()
	w := workloads.Workload{Name: "ind", Spec: workloads.Spec{
		Name:     "ind",
		Seed:     8,
		Patterns: []workloads.PatternSpec{{Kind: workloads.IndirectStride, Weight: 1, SeqLines: 4096, Gap: 2}},
		Records:  40_000,
	}}
	f := func() mem.Source { return w.Source(0) }
	res := rpg2.Evaluate(cfg.Sim, sim.Opts{}, f, nil)
	if res.Kernels == 0 {
		t.Fatal("strided kernel not identified")
	}
}

func TestDeterministicPipeline(t *testing.T) {
	run := func() float64 {
		st, _ := RunProphetDirect(Default(), testFactory())
		return st.IPC()
	}
	if run() != run() {
		t.Fatal("pipeline runs are not deterministic")
	}
}

// runTriage runs the registered triage scheme, the path a sweep takes.
func runTriage(cfg sim.Config, src mem.Source) sim.Stats {
	scheme, _ := registry.Lookup("triage")
	res, _ := scheme().Run(registry.Context{Sim: cfg, Factory: func() mem.Source { return src }})
	return res.Stats
}

// TestRunTriageRecyclesEngineStorage: the triage scheme releases its
// engine, so a second identical run reuses the first run's metadata table
// and address compressor and allocates a small fraction of the cold run's
// bytes.
func TestRunTriageRecyclesEngineStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	w, _ := workloads.Get("mcf")
	recs := mem.Materialize(w.Source(100_000))
	cfg := Default()
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runTriage(cfg.Sim, mem.NewSliceSource(recs))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC() // two cycles empty every sync.Pool: the first run is cold
	runtime.GC()
	cold, warm := run(), run()
	if warm*4 > cold {
		t.Fatalf("second triage run allocated %d bytes, first %d; want under a quarter", warm, cold)
	}
}

// TestRunProphetRecyclesEngineStorage: an optimized run releases its
// engine, so a second identical run reuses the first run's metadata table,
// address compressor and victim buffer and allocates a small fraction of
// the cold run's bytes: less than one victim buffer.
func TestRunProphetRecyclesEngineStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	w, _ := workloads.Get("mcf")
	recs := mem.Materialize(w.Source(100_000))
	p := NewProphet(Default())
	p.ProfileAndLearn(mem.NewSliceSource(recs))
	p.Analyze()
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Run(mem.NewSliceSource(recs))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC() // two cycles empty every pool: the first run is cold
	runtime.GC()
	cold, warm := run(), run()
	if warm*4 > cold {
		t.Fatalf("second optimized run allocated %d bytes, first %d; want under a quarter", warm, cold)
	}
	if mvbBytes := uint64(8 * core.DefaultMVBEntries); warm >= mvbBytes {
		t.Fatalf("second optimized run allocated %d bytes, a victim buffer's worth (%d)", warm, mvbBytes)
	}
}
