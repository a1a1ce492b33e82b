// Package pipeline orchestrates complete evaluation flows: baseline and
// hardware-prefetcher runs, the RPG2 profile-and-tune flow, and Prophet's
// three-step Profiling -> Analysis -> Learning loop from Figure 5.
//
// The package is the programmatic equivalent of the paper's methodology
// (Section 5.1): every scheme runs the same trace on the same simulated
// machine, differing only in the prefetching engine attached. It holds no
// catalog trace: every simulation pass calls its SourceFactory again, so a
// catalog workload's generator rebuilds the trace. A graph or trace-file
// workload replays the packed trace mem.Traces holds, which a sweep keeps
// from a key's first pass until its last job ends.
package pipeline

import (
	"prophet/internal/analysis"
	"prophet/internal/core"
	"prophet/internal/learning"
	"prophet/internal/mem"
	"prophet/internal/pmu"
	"prophet/internal/sim"
	"prophet/internal/triangel"

	// Registered for their scheme-registry side effects: every binary that
	// evaluates through the pipeline can resolve "gaze", "rpg2" and
	// "triage".
	_ "prophet/internal/gaze"
	_ "prophet/internal/rpg2"
	_ "prophet/internal/triage"
)

// SourceFactory produces a fresh deterministic trace for each run.
// Schemes that profile before running (RPG2, Prophet) need several passes
// over identical traces, exactly like re-running a binary on the same input.
type SourceFactory func() mem.Source

// RunBaseline runs the system without any temporal or software prefetcher
// (the L1 stride prefetcher of Table 1 stays on). All speedups in the
// figures are normalized to this configuration.
func RunBaseline(cfg sim.Config, src mem.Source) sim.Stats {
	return sim.Run(cfg, nil, nil, nil, nil, src)
}

// RunTriangel runs the Triangel hardware prefetcher.
func RunTriangel(cfg sim.Config, tcfg triangel.Config, src mem.Source) sim.Stats {
	e := triangel.New(tcfg)
	st := sim.Run(cfg, e, nil, nil, nil, src)
	e.Release()
	return st
}

// --- Prophet flow (Figure 5) ---

// Config bundles the Prophet pipeline parameters.
type Config struct {
	Sim      sim.Config
	Prophet  core.Config
	Analysis analysis.Params
	// L is the Equation 4 designer parameter.
	L int
	// Run shapes how simulation passes execute (records per block of the
	// hot loop). Results are bit-identical for every value, so Run is
	// excluded from result cache keys and store fingerprints.
	Run sim.Opts
}

// Default returns the paper's evaluated pipeline configuration.
func Default() Config {
	return Config{
		Sim:      sim.Default(),
		Prophet:  core.DefaultConfig(),
		Analysis: analysis.DefaultParams(),
		L:        learning.DefaultL,
	}
}

// Prophet is the stateful pipeline: it accumulates profiles across inputs
// (Step 3) and regenerates hints (Step 2) on demand.
type Prophet struct {
	cfg     Config
	profile *learning.Profile
	result  analysis.Result
	fresh   bool // result reflects the current profile
}

// NewProphet starts an empty pipeline.
func NewProphet(cfg Config) *Prophet {
	return &Prophet{cfg: cfg, profile: learning.NewProfile(cfg.L)}
}

// Profile executes Step 1: run the input under the simplified temporal
// prefetcher (1MB fixed table, degree 1, no insertion policy) collecting
// PMU counters.
func (p *Prophet) Profile(src mem.Source) *pmu.Counters {
	counters := pmu.NewCounters(1)
	engine := core.New(p.cfg.Prophet.Simplified(), core.HintSet{}, nil)
	sim.RunOpts(p.cfg.Sim, p.cfg.Run, engine, nil, counters, nil, src)
	engine.Release()
	return counters
}

// Learn executes Step 3: merge counters into the persistent profile.
func (p *Prophet) Learn(c *pmu.Counters) {
	p.profile.Learn(c)
	p.fresh = false
}

// ProfileAndLearn chains Steps 1 and 3 for one input.
func (p *Prophet) ProfileAndLearn(src mem.Source) {
	p.Learn(p.Profile(src))
}

// Analyze executes Step 2: generate hints from the merged profile.
func (p *Prophet) Analyze() analysis.Result {
	if !p.fresh {
		p.result = analysis.Analyze(p.profile, p.cfg.Analysis)
		p.fresh = true
	}
	return p.result
}

// Profile returns the persistent learning state (for inspection).
func (p *Prophet) ProfileState() *learning.Profile { return p.profile }

// Engine builds a Prophet engine from the current hints with the given
// feature set (the Figure 19 ablation toggles features cumulatively).
func (p *Prophet) Engine(features core.Features) *core.Prophet {
	res := p.Analyze()
	cfg := p.cfg.Prophet
	cfg.Features = features
	return core.New(cfg, res.Hints, res.Weights)
}

// Run executes the optimized binary with all Prophet features.
func (p *Prophet) Run(src mem.Source) sim.Stats {
	return p.RunWithFeatures(core.AllFeatures(), src)
}

// RunWithFeatures executes with a specific feature subset.
func (p *Prophet) RunWithFeatures(features core.Features, src mem.Source) sim.Stats {
	engine := p.Engine(features)
	st := sim.RunOpts(p.cfg.Sim, p.cfg.Run, engine, nil, nil, nil, src)
	engine.Release()
	return st
}

// RunProphetDirect is the common single-input flow: profile the input once,
// learn, analyze, and run the optimized binary on it.
func RunProphetDirect(cfg Config, factory SourceFactory) (sim.Stats, *Prophet) {
	p := NewProphet(cfg)
	p.ProfileAndLearn(factory())
	return p.Run(factory()), p
}
