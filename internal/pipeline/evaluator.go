package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"prophet/internal/mem"
	"prophet/internal/memo"
	"prophet/internal/registry"
	"prophet/internal/sim"
)

// Job names one unit of evaluation work: a workload trace run under a
// registered scheme.
type Job struct {
	// Key identifies the trace for baseline caching. Two jobs with equal
	// keys must produce identical traces from their factories (the usual
	// key is "name@records").
	Key string
	// Factory produces the job's deterministic trace. Every simulation
	// pass of the job (baseline, profile, scheme run) calls it again,
	// unless the key's trace is held (see SweepFunc).
	Factory SourceFactory
	// Scheme is the registered scheme name ("baseline", "triage",
	// "triangel", "rpg2", "prophet", or anything registered since).
	Scheme string
}

// Outcome is one job's result. Err is non-nil when the scheme is unknown,
// the scheme itself failed, or the sweep was cancelled before the job ran.
type Outcome struct {
	Job   Job
	Stats sim.Stats
	// Base is the cached no-temporal-prefetching baseline for the same
	// trace — every normalized metric divides by it.
	Base sim.Stats
	// Meta carries scheme extras (rpg2: kernels/distance; prophet:
	// hints/metaWays/disableTP).
	Meta map[string]int
	Err  error
}

// Evaluator owns a pipeline configuration, a per-trace baseline cache, and
// a bounded worker pool. It is safe for concurrent use; all scheme runs are
// deterministic, so parallel sweeps return bit-identical results to serial
// ones.
type Evaluator struct {
	cfg       Config
	workers   int
	baselines *memo.Memo[sim.Stats]
}

// baselineEntries bounds an evaluator's baseline cache: about ten times the
// 26-workload catalog, at a few hundred bytes per sim.Stats.
const baselineEntries = 256

// NewEvaluator builds an evaluator. workers <= 0 selects runtime.NumCPU().
func NewEvaluator(cfg Config, workers int) *Evaluator {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Evaluator{
		cfg:       cfg,
		workers:   workers,
		baselines: memo.New[sim.Stats](baselineEntries, 0, nil),
	}
}

// Config returns the evaluator's pipeline configuration.
func (e *Evaluator) Config() Config { return e.cfg }

// Workers returns the sweep pool width.
func (e *Evaluator) Workers() int { return e.workers }

// CacheStats reports baseline cache hits and misses so far. A caller that
// waited on a baseline another was simulating counts as a hit.
func (e *Evaluator) CacheStats() (hits, misses int64) {
	st := e.baselines.Stats()
	return st.Hits + st.Coalesced, st.Misses
}

// Baseline returns the no-temporal-prefetching run for the trace identified
// by key, simulating it at most once per evaluator while the key stays in
// the bounded cache. Concurrent callers for the same key block on one
// simulation (singleflight) — the run is deterministic, so whoever computes
// it, everyone sees the same stats, and an evicted key recomputes them.
func (e *Evaluator) Baseline(key string, factory SourceFactory) sim.Stats {
	st, err := e.baselines.Do(context.Background(), key, func() (sim.Stats, error) {
		return sim.RunOpts(e.cfg.Sim, e.cfg.Run, nil, nil, nil, nil, factory()), nil
	})
	if err != nil {
		panic(err) // only a panicking simulation fails; re-raise it
	}
	return st
}

// RunDirect implements registry.ProphetRunner: the single-input Figure 5
// flow (profile, learn, analyze, run) on a fresh pipeline.
func (e *Evaluator) RunDirect(factory registry.SourceFactory) (sim.Stats, map[string]int) {
	st, p := RunProphetDirect(e.cfg, SourceFactory(factory))
	hints := p.Analyze().Hints
	meta := map[string]int{"hints": len(hints.PC), "metaWays": hints.MetaWays}
	if hints.DisableTP {
		meta["disableTP"] = 1
	}
	return st, meta
}

// Run executes one job synchronously, consulting the baseline cache: a
// one-job sweep.
func (e *Evaluator) Run(ctx context.Context, job Job) Outcome {
	var out Outcome
	e.SweepFunc(ctx, []Job{job}, func(_ int, o Outcome) { out = o })
	return out
}

// run executes one job, its passes replaying key's trace.
func (e *Evaluator) run(ctx context.Context, job Job, key *keyTrace) Outcome {
	out := Outcome{Job: job}
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	factory, ok := registry.Lookup(job.Scheme)
	if !ok {
		out.Err = fmt.Errorf("pipeline: unknown scheme %q (registered: %s)",
			job.Scheme, strings.Join(registry.Names(), ", "))
		return out
	}
	job.Factory = key.factory(job.Factory)
	out.Base = e.Baseline(job.Key, job.Factory)
	res, err := factory().Run(registry.Context{
		Sim:      e.cfg.Sim,
		Opts:     e.cfg.Run,
		Factory:  registry.SourceFactory(job.Factory),
		Baseline: func() sim.Stats { return out.Base },
		Prophet:  e,
	})
	out.Stats, out.Meta, out.Err = res.Stats, res.Meta, err
	return out
}

// Sweep fans the jobs out over the worker pool and returns their outcomes
// in job order — results are positionally deterministic and, because every
// run is pure, bit-identical to a serial execution. Cancelling the context
// stops dispatch promptly: jobs not yet started come back with Err set to
// the context error (in-flight simulations run to completion; the simulator
// has no preemption points).
func (e *Evaluator) Sweep(ctx context.Context, jobs ...Job) ([]Outcome, error) {
	out := make([]Outcome, len(jobs))
	e.SweepFunc(ctx, jobs, func(i int, o Outcome) { out[i] = o })
	return out, ctx.Err()
}

// SweepFunc runs the jobs on the worker pool and calls done(i, out) once
// per job, with the job's index, as soon as the job ends, from the
// goroutine that ran it; it returns when every call has returned. Outcomes
// are Sweep's. Jobs run grouped by trace key, keys in order of first
// appearance (a workload-major list runs as given), so a key's later jobs
// find its baseline computed or wait for its one simulation in flight.
// Every pass calls the job's factory again, so a catalog workload
// regenerates its trace and nothing holds it. A packed trace a factory
// returns (a graph or trace file's mem.Traces entry) is held until the
// key's last job ends, so a sweep builds it once whatever the memo evicts.
func (e *Evaluator) SweepFunc(ctx context.Context, jobs []Job, done func(i int, out Outcome)) {
	keys := make(map[string]*keyTrace)
	for _, j := range jobs {
		if keys[j.Key] == nil {
			keys[j.Key] = &keyTrace{rank: len(keys)}
		}
		keys[j.Key].jobs++
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return keys[jobs[a].Key].rank - keys[jobs[b].Key].rank })
	ForEach(e.workers, len(order), func(k int) {
		i := order[k]
		key := keys[jobs[i].Key]
		out := e.run(ctx, jobs[i], key)
		key.end()
		done(i, out)
	})
}

// keyTrace is the packed trace a sweep holds for one key's jobs.
type keyTrace struct {
	rank   int // the key's place in the sweep's order
	mu     sync.Mutex
	jobs   int // the key's jobs not yet ended
	packed *mem.Packed
}

// factory wraps a job's factory: a packed trace it returns is held, and
// later passes replay the held trace instead of calling the factory.
func (k *keyTrace) factory(f SourceFactory) SourceFactory {
	return func() mem.Source {
		k.mu.Lock()
		defer k.mu.Unlock()
		if k.packed != nil {
			return k.packed.Source()
		}
		src := f()
		if s, ok := src.(*mem.PackedSource); ok {
			k.packed = s.Trace()
		}
		return src
	}
}

// end ends one of the key's jobs; the last one drops the held trace.
func (k *keyTrace) end() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.jobs--; k.jobs == 0 {
		k.packed = nil
	}
}

// ForEach runs fn(i) for i in [0,n) on up to workers goroutines and blocks
// until all complete. It is the shared fan-out primitive behind Sweep and
// the experiment runners: callers write results into index-addressed slots,
// so output stays deterministic whatever the interleaving.
func ForEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
