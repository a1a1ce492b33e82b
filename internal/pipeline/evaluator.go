package pipeline

import (
	"context"
	"fmt"
	"runtime"
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
	// Factory produces a fresh deterministic trace per simulation pass.
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

// traces is the process-wide materialized-trace cache. Trace factories are
// deterministic per key, so every simulation pass over the same key —
// baseline, scheme run, Prophet's profile pass, RPG2's tuning ladder, each
// scheme of a sweep — can replay one in-memory trace instead of
// re-generating (or re-decoding) the stream. Generation is a measurable
// fraction of short runs; this is the sweep-level scratch reuse that removes
// it. The packed form holds about 6 bytes a record against 24 for an
// []mem.Access, and replay decodes it straight into the simulator's block
// buffer; trace.Bytes() is an entry's exact size. The cache is global, not
// per-evaluator, because a trace depends only on its key (workload name,
// record count, file identity) — never on the system configuration — so
// independent evaluators sharing a process can share the records. The bound
// keeps a long-lived daemon from accumulating every trace it served.
var traces = memo.New[*mem.Packed](traceCacheEntries, 0, nil)

// traceCacheEntries bounds the materialized-trace cache.
const traceCacheEntries = 8

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

// cachedFactory wraps a job's trace factory so all passes share one packed
// trace. The factory materializes its trace once, on first use, through the
// trace cache, where concurrent factories for the same key coalesce; it
// keeps that trace even after the cache evicts the key.
func cachedFactory(key string, f SourceFactory) SourceFactory {
	var once sync.Once
	var trace *mem.Packed
	return func() mem.Source {
		once.Do(func() {
			var err error
			// Pack returns the storage of an unread packed source as is
			// (file: traces packed by the root-level cache), so the two
			// cache layers never hold duplicate copies of one trace.
			trace, err = traces.Do(context.Background(), key, func() (*mem.Packed, error) {
				return mem.Pack(f()), nil
			})
			if err != nil {
				panic(err) // only a panicking factory fails; re-raise it
			}
		})
		return trace.Source()
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
	p := NewProphet(e.cfg)
	p.ProfileAndLearn(factory())
	res := p.Analyze()
	st := p.Run(factory())
	meta := map[string]int{"hints": len(res.Hints.PC), "metaWays": res.Hints.MetaWays}
	if res.Hints.DisableTP {
		meta["disableTP"] = 1
	}
	return st, meta
}

// Run executes one job synchronously, consulting the baseline cache.
func (e *Evaluator) Run(ctx context.Context, job Job) Outcome {
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
	job.Factory = cachedFactory(job.Key, job.Factory)
	out.Base = e.Baseline(job.Key, job.Factory)
	if job.Scheme == "baseline" {
		// The baseline scheme IS the cached run; don't simulate it twice.
		out.Stats = out.Base
		return out
	}
	res, err := factory().Run(registry.Context{
		Sim:      e.cfg.Sim,
		Opts:     e.cfg.Run,
		Factory:  registry.SourceFactory(job.Factory),
		Baseline: func() sim.Stats { return e.Baseline(job.Key, job.Factory) },
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
	ForEach(e.workers, len(jobs), func(i int) {
		out[i] = e.Run(ctx, jobs[i])
	})
	return out, ctx.Err()
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
