// Package registry is the pluggable prefetching-scheme registry behind the
// public Evaluator API. Scheme packages (triage, triangel, rpg2, core)
// self-register a factory under a stable name in their init functions;
// evaluators resolve schemes by name at run time instead of switching over a
// hard-coded list, so adding a prefetcher is a new package plus one Register
// call — the core API never changes.
//
// The registry sits below internal/pipeline in the import graph: it may
// depend only on the simulator substrate (sim, mem). Schemes that need the
// full profile-guided pipeline (Prophet's profile -> learn -> analyze ->
// run loop) receive it through Context.Prophet, a hook the evaluator
// injects, which keeps the analysis/learning layers out of the scheme
// packages' import sets.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"prophet/internal/mem"
	"prophet/internal/sim"
)

// SourceFactory produces a fresh deterministic trace per pass. Schemes that
// profile before running (RPG2, Prophet) call it several times and must see
// identical access streams, exactly like re-running a binary on one input.
type SourceFactory func() mem.Source

// ProphetRunner is the evaluator-injected hook into the profile-guided
// pipeline (Figure 5). It exists because the pipeline's analysis layer
// imports core, so core cannot implement the flow itself without a cycle.
type ProphetRunner interface {
	// RunDirect profiles the input once, learns, analyzes, and runs the
	// optimized binary on it (the Direct flow of Figure 13). The meta map
	// reports pipeline extras ("hints", "metaWays", "disableTP").
	RunDirect(factory SourceFactory) (sim.Stats, map[string]int)
}

// Context carries everything a scheme run may need.
type Context struct {
	// Sim is the simulated system configuration (Table 1 by default).
	Sim sim.Config
	// Opts shapes how the scheme's simulation passes execute (records per
	// block of the hot loop). Results are bit-identical for every value;
	// schemes pass it through to sim.RunOpts untouched.
	Opts sim.Opts
	// Factory produces the workload trace; call once per simulation pass.
	Factory SourceFactory
	// Baseline returns the no-prefetching run for this trace, served from
	// the evaluator's cache — the baseline scheme and schemes that
	// degenerate to it (RPG2 without kernels) call it instead of
	// re-simulating.
	Baseline func() sim.Stats
	// Prophet is the profile-guided pipeline hook; nil when the caller
	// cannot run pipelines (the prophet scheme then fails cleanly).
	Prophet ProphetRunner
}

// Result is one scheme run's outcome.
type Result struct {
	// Stats is the simulated run outcome.
	Stats sim.Stats
	// Meta carries scheme-specific extras (rpg2: "kernels", "distance";
	// prophet: "hints", "metaWays", "disableTP"). May be nil.
	Meta map[string]int
}

// Scheme runs one workload under one prefetching configuration.
type Scheme interface {
	Run(ctx Context) (Result, error)
}

// Func adapts a plain function to Scheme.
type Func func(ctx Context) (Result, error)

// Run implements Scheme.
func (f Func) Run(ctx Context) (Result, error) { return f(ctx) }

// Factory builds a fresh Scheme instance per run, so scheme state (tables,
// confidence counters) never leaks across runs or goroutines.
type Factory func() Scheme

var (
	mu      sync.RWMutex
	schemes = map[string]Factory{}
)

// Register installs a scheme factory under name. Duplicate names are
// rejected: two packages silently fighting over a name would make results
// depend on init order.
func Register(name string, factory Factory) error {
	if name == "" {
		return fmt.Errorf("registry: empty scheme name")
	}
	if factory == nil {
		return fmt.Errorf("registry: nil factory for scheme %q", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := schemes[name]; dup {
		return fmt.Errorf("registry: scheme %q already registered", name)
	}
	schemes[name] = factory
	return nil
}

// MustRegister is Register for init functions: a duplicate is a programming
// error, not a runtime condition.
func MustRegister(name string, factory Factory) {
	if err := Register(name, factory); err != nil {
		panic(err)
	}
}

// Lookup resolves a scheme factory by name.
func Lookup(name string) (Factory, bool) {
	mu.RLock()
	defer mu.RUnlock()
	f, ok := schemes[name]
	return f, ok
}

// Names lists the registered schemes, sorted for stable output.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(schemes))
	for n := range schemes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
