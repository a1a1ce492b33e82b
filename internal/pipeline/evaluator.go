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
	// Factory produces the job's deterministic trace. A sweep calls it
	// once per key, to pack the trace that every pass of the key's jobs
	// replays.
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

// traces is the process-wide store of materialized traces, leased by the
// jobs in flight. Trace factories are deterministic per key, so every
// simulation pass over the same key — baseline, scheme run, Prophet's
// profile pass, RPG2's tuning ladder, each scheme of a sweep — replays one
// in-memory trace instead of re-generating (or re-decoding) the stream.
// Generation is a measurable fraction of short runs; this is the
// sweep-level scratch reuse that removes it. The packed form holds about 6
// bytes a record against 24 for an []mem.Access, and replay decodes it
// straight into the simulator's block buffer; trace.Bytes() is an entry's
// exact size.
//
// The store is global, not per-evaluator, because a trace depends only on
// its key (workload name, record count, file identity) — never on the
// system configuration — so concurrent sweeps of independent evaluators
// over one key share one trace. It holds a key only while a job holds it:
// a sweep leases the key of each of its jobs before any runs, the first
// pass packs the trace, and the last job's release drops it. What it holds
// is thus bounded by the work in flight, not by a cache size.
var traces = traceStore{m: map[string]*traceEntry{}}

type traceStore struct {
	mu sync.Mutex
	m  map[string]*traceEntry
}

// traceEntry is one key's trace and the number of jobs holding it.
type traceEntry struct {
	refs int // guarded by the store's mu
	// trace packs the trace on its first call and returns it thereafter;
	// concurrent first calls wait for one pack, and a factory panic
	// reaches every caller.
	trace func() *mem.Packed
	// packed is the trace once packed, for HeldTraces.
	packed atomic.Pointer[mem.Packed]
}

// acquire leases key for one job, creating its entry, packed from f on
// first use, when no job holds the key.
func (s *traceStore) acquire(key string, f SourceFactory) *traceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.m[key]
	if ent == nil {
		ent = &traceEntry{}
		ent.trace = sync.OnceValue(func() *mem.Packed {
			// Pack returns the storage of an unread packed source as is
			// (trace files packed by the root-level cache), so the two
			// layers never hold duplicate copies of one trace.
			p := mem.Pack(f())
			ent.packed.Store(p)
			return p
		})
		s.m[key] = ent
	}
	ent.refs++
	return ent
}

// release ends one job's lease on key; the last one drops the trace.
func (s *traceStore) release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.m[key]
	if ent.refs--; ent.refs == 0 {
		delete(s.m, key)
	}
}

// HeldTraces reports how many packed traces the trace store holds, and
// their bytes: the traces of the jobs in flight. It reads zero whenever no
// sweep or run is in progress.
func HeldTraces() (n, bytes int) {
	traces.mu.Lock()
	defer traces.mu.Unlock()
	for _, ent := range traces.m {
		if p := ent.packed.Load(); p != nil {
			n++
			bytes += p.Bytes()
		}
	}
	return n, bytes
}

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

// run executes one job under its lease on the job's trace, and ends the
// lease when it returns.
func (e *Evaluator) run(ctx context.Context, job Job, ent *traceEntry) Outcome {
	defer traces.release(job.Key)
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
	job.Factory = func() mem.Source { return ent.trace().Source() }
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
// appearance (a workload-major list runs as given), and every key is
// leased from the trace store for each of its jobs before any runs. A
// key's trace is thus packed once per sweep, by its first pass, and
// dropped when its last job ends, so about one trace per worker is live.
func (e *Evaluator) SweepFunc(ctx context.Context, jobs []Job, done func(i int, out Outcome)) {
	rank := make(map[string]int)
	for _, j := range jobs {
		if _, ok := rank[j.Key]; !ok {
			rank[j.Key] = len(rank)
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank[jobs[a].Key] - rank[jobs[b].Key] })
	ents := make([]*traceEntry, len(jobs))
	for _, i := range order {
		ents[i] = traces.acquire(jobs[i].Key, jobs[i].Factory)
	}
	ForEach(e.workers, len(order), func(k int) {
		i := order[k]
		out := e.run(ctx, jobs[i], ents[i])
		ents[i] = nil // the store alone keeps a trace, while a job holds it
		done(i, out)
	})
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
