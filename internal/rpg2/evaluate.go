package rpg2

import (
	"prophet/internal/mem"
	"prophet/internal/sim"
)

// EvalResult carries the full RPG2 methodology outcome.
type EvalResult struct {
	Stats    sim.Stats
	Kernels  int
	Distance int
}

// observer adapts the profiler to the sim observer interface, counting an
// access as a miss when it leaves the L1 (the paper's "at least 10% cache
// misses" qualification).
type observer struct{ prof *Profiler }

func (o observer) OnDemandAccess(pc mem.Addr, line mem.Line, l1Hit, _ bool) {
	o.prof.Observe(pc, line, !l1Hit)
}

// Evaluate performs the full RPG2 methodology: profile to find stride
// kernels, tune the prefetch distance by binary search, then run with the
// best distance. With no qualifying kernels the scheme degenerates to the
// baseline, as on most SPEC workloads — baseline may supply that run from a
// cache (nil = simulate it here).
func Evaluate(cfg sim.Config, opts sim.Opts, factory func() mem.Source, baseline func() sim.Stats) EvalResult {
	prof := NewProfiler()
	// Kernel identification profiles load misses the way PEBS counts
	// retired-load misses: without the L1 prefetcher masking them.
	profCfg := cfg
	profCfg.L1PF = sim.L1None
	sim.RunOpts(profCfg, opts, nil, nil, nil, observer{prof}, factory())
	kernels := prof.Kernels(DefaultProfileParams())
	if baseline == nil {
		baseline = func() sim.Stats { return sim.RunOpts(cfg, opts, nil, nil, nil, nil, factory()) }
	}
	if len(kernels) == 0 {
		return EvalResult{Stats: baseline(), Kernels: 0, Distance: 0}
	}
	var bestIPC float64
	best := TuneDistance(32, func(d int) float64 {
		ipc := sim.RunOpts(cfg, opts, nil, NewPrefetcher(kernels, d), nil, nil, factory()).IPC()
		if ipc > bestIPC {
			bestIPC = ipc
		}
		return ipc
	})
	// RPG2 is *robust*: prefetches that do not pay off are rolled back at
	// runtime. If the tuned configuration loses to the plain baseline, the
	// kernels are dropped.
	if baseTune := sim.RunOpts(cfg, opts, nil, nil, nil, nil, factory()).IPC(); bestIPC <= baseTune {
		return EvalResult{Stats: baseline(), Kernels: len(kernels), Distance: 0}
	}
	st := sim.RunOpts(cfg, opts, nil, NewPrefetcher(kernels, best), nil, nil, factory())
	return EvalResult{Stats: st, Kernels: len(kernels), Distance: best}
}
