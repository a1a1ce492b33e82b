package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/sim"
	"prophet/internal/temporal"
	"prophet/internal/triage"
	"prophet/internal/triangel"
	"prophet/internal/workloads"
)

// engineCase builds one temporal engine for a trace: input 0 is trace A
// (mcf), input 1 trace B (omnetpp).
type engineCase struct {
	name  string
	build func(input int) (temporal.Engine, func())
}

// recycledEngineCases covers every engine a sweep recycles: Triage,
// Triangel with its Set-Dueller, and Prophet in its Step 1 profiling
// configuration and optimized with each trace's own hints, which fill its
// hint buffer and victim buffer.
func recycledEngineCases(t *testing.T, traces [2][]mem.Access) []engineCase {
	cfg := Default()
	var hints [2]analysisHints
	for i, recs := range traces {
		p := NewProphet(cfg)
		p.ProfileAndLearn(mem.NewSliceSource(recs))
		res := p.Analyze()
		if len(res.Hints.PC) == 0 || res.Hints.DisableTP {
			t.Fatalf("trace %d: no hints to install (%d PCs, disableTP %v)", i, len(res.Hints.PC), res.Hints.DisableTP)
		}
		hints[i] = analysisHints{res.Hints, res.Weights}
	}
	// Shorter resize epochs make Triage's resizing and the Set-Dueller
	// decide within one trace, and a 512-set table puts Triangel's
	// metadata under pressure and shortens its reuse window.
	tcfg := triage.Default()
	tcfg.ResizeEpoch = 50_000
	tlcfg := triangel.Default()
	tlcfg.Table.Sets, tlcfg.ResizeEpoch, tlcfg.SetDueller = 512, 5_000, true
	return []engineCase{
		{"triage", func(int) (temporal.Engine, func()) {
			e := triage.New(tcfg)
			return e, e.Release
		}},
		{"triangel", func(int) (temporal.Engine, func()) {
			e := triangel.New(tlcfg)
			return e, e.Release
		}},
		{"prophet-profile", func(int) (temporal.Engine, func()) {
			e := core.New(cfg.Prophet.Simplified(), core.HintSet{}, nil)
			return e, e.Release
		}},
		{"prophet-optimized", func(i int) (temporal.Engine, func()) {
			e := core.New(cfg.Prophet, hints[i].set, hints[i].weights)
			return e, e.Release
		}},
	}
}

type analysisHints struct {
	set     core.HintSet
	weights map[mem.Addr]uint64
}

// engineTraces returns traces A and B.
func engineTraces(records uint64) [2][]mem.Access {
	var out [2][]mem.Access
	for i, name := range []string{"mcf", "omnetpp"} {
		w, _ := workloads.Get(name)
		out[i] = mem.Materialize(w.Source(records))
	}
	return out
}

// engineRun is what a run shows of its engine: the simulation's stats and
// a fingerprint of every prefetch the engine asked for, in order.
type engineRun struct {
	stats      sim.Stats
	prefetches uint64
}

// fingerprint passes an engine through, hashing each OnAccess answer.
type fingerprint struct {
	temporal.Engine
	sum uint64
}

func (f *fingerprint) OnAccess(ev temporal.AccessEvent) []mem.Line {
	out := f.Engine.OnAccess(ev)
	f.sum = f.sum*0x100000001b3 ^ uint64(len(out))
	for _, l := range out {
		f.sum = f.sum*0x100000001b3 ^ uint64(l)
	}
	return out
}

// runEngine simulates trace input on an engine c builds, releases it and
// returns the run and the engine.
func runEngine(c engineCase, traces [2][]mem.Access, input int) (engineRun, temporal.Engine) {
	e, release := c.build(input)
	f := &fingerprint{Engine: e}
	st := sim.Run(Default().Sim, f, nil, nil, nil, mem.NewSliceSource(traces[input]))
	release()
	return engineRun{st, f.sum}, e
}

// TestRecycledEnginesMatchFresh: an engine released after a run on trace A
// and rebuilt for trace B runs B exactly as a fresh engine does, and so
// does one rebuilt after a run on B itself, whose stale samples, PCs and
// victims would meet the same lines again. The fresh run comes first,
// after two GC cycles have emptied every pool; the engine it releases is
// the one rebuilt for each later run.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	traces := engineTraces(100_000)
	for _, c := range recycledEngineCases(t, traces) {
		t.Run(c.name, func(t *testing.T) {
			runtime.GC() // two cycles empty every pool: the next engine is fresh
			runtime.GC()
			want, fresh := runEngine(c, traces, 1)
			if want.stats.TPIssued == 0 {
				t.Fatal("the engine issued no prefetch on trace B")
			}
			for _, prev := range []string{"trace A", "trace B"} {
				if prev == "trace A" {
					if _, e := runEngine(c, traces, 0); e != fresh {
						t.Fatal("the released engine was not rebuilt for trace A")
					}
				}
				got, e := runEngine(c, traces, 1)
				if e != fresh {
					t.Fatalf("after %s the released engine was not rebuilt", prev)
				}
				if got != want {
					t.Fatalf("trace B after %s on a recycled engine:\n got %+v\nwant %+v", prev, got, want)
				}
			}
		})
	}
}

// TestRecycledEnginesConcurrent: two goroutines alternate traces A and B
// on each engine, so every rebuilt engine may have last run the other
// trace on the other goroutine; each run must still equal a fresh engine's.
func TestRecycledEnginesConcurrent(t *testing.T) {
	traces := engineTraces(80_000)
	for _, c := range recycledEngineCases(t, traces) {
		t.Run(c.name, func(t *testing.T) {
			runtime.GC()
			runtime.GC()
			var want [2]engineRun
			for i := range want {
				want[i], _ = runEngine(c, traces, i)
				if want[i].stats.TPIssued == 0 {
					t.Fatalf("the engine issued no prefetch on trace %d", i)
				}
				runtime.GC()
				runtime.GC()
			}
			var wg sync.WaitGroup
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range 3 {
						input := (g + k) % 2
						if got, _ := runEngine(c, traces, input); got != want[input] {
							t.Errorf("goroutine %d, run %d (trace %d) differs from a fresh engine's", g, k, input)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
