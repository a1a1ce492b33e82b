package prophet

import (
	"context"
	"fmt"

	"prophet/internal/dispatch"
	"prophet/internal/experiments"
	"prophet/internal/pipeline"
	"prophet/internal/registry"
)

// Evaluator is the stateful evaluation service: it owns a fixed system /
// pipeline configuration, a per-workload baseline cache, and a concurrent
// sweep engine over the pluggable scheme registry. It is safe for
// concurrent use, and all runs are deterministic — a parallel Sweep returns
// bit-identical results to a serial one, and a Sweep sharded over remote
// backends (WithBackends) returns bit-identical results to an in-process
// one.
type Evaluator struct {
	opts    Options
	workers int

	backendURLs     []string
	backendRetries  int
	backendMaxBatch int

	// store is the optional durable result tier (UseResultStore): jobs
	// whose results are stored are answered from disk instead of being
	// simulated, and completed results write through.
	store ResultStore

	eng  *pipeline.Evaluator
	disp *dispatch.Dispatcher[Job, Result]
}

// Option configures an Evaluator under construction.
type Option func(*Evaluator)

// WithOptions applies a full legacy Options value (bulk form of the
// individual With* options).
func WithOptions(o Options) Option { return func(e *Evaluator) { e.opts = o } }

// WithELAcc sets the Equation 1 insertion threshold (default 0.15).
func WithELAcc(v float64) Option { return func(e *Evaluator) { e.opts.ELAcc = v } }

// WithPriorityBits sets Equation 2's n (default 2; above MaxPriorityBits it
// runs as MaxPriorityBits).
func WithPriorityBits(n int) Option { return func(e *Evaluator) { e.opts.PriorityBits = n } }

// WithMVBCandidates sets the victim-buffer alternate budget (default 1).
func WithMVBCandidates(n int) Option { return func(e *Evaluator) { e.opts.MVBCandidates = n } }

// WithLearningL sets Equation 4's designer parameter L (default 4).
func WithLearningL(n int) Option { return func(e *Evaluator) { e.opts.LearningL = n } }

// WithDRAMChannels widens memory bandwidth (default 1, Table 1).
func WithDRAMChannels(n int) Option { return func(e *Evaluator) { e.opts.DRAMChannels = n } }

// L1Prefetcher selects the simulated L1 prefetcher.
type L1Prefetcher int

const (
	// L1Stride is Table 1's degree-8 stride prefetcher (the default).
	L1Stride L1Prefetcher = iota
	// L1IPCP is the Figure 17 IPCP-style composite prefetcher.
	L1IPCP
	// L1None disables L1 prefetching.
	L1None
)

// WithL1Prefetcher selects the L1 prefetcher (default L1Stride).
func WithL1Prefetcher(k L1Prefetcher) Option { return func(e *Evaluator) { e.opts.L1Prefetcher = k } }

// WithWorkers bounds the Sweep worker pool (default: runtime.NumCPU()).
func WithWorkers(n int) Option { return func(e *Evaluator) { e.workers = n } }

// WithBackends configures remote prophetd base URLs (e.g.
// "http://worker1:8373") as a sharded sweep fleet. When at least one
// backend is configured, Sweep cuts the jobs into consecutive chunks in job
// order, grants each chunk as one POST /v1/batch request to the backend
// with the fewest chunks in flight, retries failed batches, and fails
// over to the in-process engine when a backend stays down — results come
// back in job order, byte-identical to a purely local sweep as long as the
// backends simulate the same engine configuration. Jobs naming recorded
// trace files (file:, champsim:, csv:) always run locally (remote daemons
// cannot read this machine's files). Run, RunJob, and SweepLocal never
// leave the process.
func WithBackends(urls ...string) Option {
	return func(e *Evaluator) { e.backendURLs = append([]string(nil), urls...) }
}

// WithBackendRetries sets how many attempts each batch gets on its backend
// before failing over to the local engine (default 2).
func WithBackendRetries(n int) Option {
	return func(e *Evaluator) { e.backendRetries = n }
}

// WithBackendMaxBatch sets the jobs per batch request: the sweep is cut
// into consecutive chunks of that size (default 0 = about two chunks per
// backend).
func WithBackendMaxBatch(n int) Option {
	return func(e *Evaluator) { e.backendMaxBatch = n }
}

// New constructs an Evaluator from the paper's default configuration plus
// the given options.
func New(opts ...Option) *Evaluator {
	e := &Evaluator{opts: DefaultOptions()}
	for _, o := range opts {
		o(e)
	}
	// Options(), the store fingerprint and the batch echo all read the
	// resolved value, so each describes the configuration simulated.
	e.opts = e.opts.resolved()
	e.eng = pipeline.NewEvaluator(e.opts.pipelineConfig(), e.workers)
	// The coordinator always exists, even with an empty initial fleet, so
	// peers can join at runtime (AddBackend / prophetd's POST /v1/peers).
	e.disp = e.newDispatcher()
	return e
}

// Backends reports the live fleet's peer base URLs in join order (nil when
// sweeps run purely in process). Unlike the WithBackends list, this tracks
// runtime joins and drains.
func (e *Evaluator) Backends() []string {
	ps := e.disp.Peers()
	if len(ps) == 0 {
		return nil
	}
	return ps
}

// DispatchStats reports cumulative sweep-dispatch counters; all zeros until
// a sweep is dispatched over at least one backend.
func (e *Evaluator) DispatchStats() DispatchStats {
	st := e.disp.Stats()
	return DispatchStats{
		Remote:     st.Remote,
		Local:      st.Local,
		Retries:    st.Retries,
		Failovers:  st.Failovers,
		Cached:     st.Cached,
		ShortLocal: st.ShortLocal,
	}
}

// Workers reports the sweep pool width actually in use.
func (e *Evaluator) Workers() int { return e.eng.Workers() }

// Options reports the resolved configuration the evaluator was built with
// (functional options folded into the bulk form, unset fields filled from
// the defaults) — introspection for services that surface their engine's
// knobs.
func (e *Evaluator) Options() Options { return e.opts }

// BaselineCacheStats reports baseline cache hits and misses so far — each
// miss is one no-prefetching simulation; each hit is one such simulation
// amortized away.
func (e *Evaluator) BaselineCacheStats() (hits, misses int64) { return e.eng.CacheStats() }

// Schemes lists every registered scheme name, sorted.
func (e *Evaluator) Schemes() []string { return registry.Names() }

// Job names one unit of sweep work.
type Job struct {
	Workload Workload
	Scheme   Scheme
}

// Jobs builds the cross product of workloads and schemes in workload-major
// order — the usual sweep shape ("run these schemes on these workloads").
func Jobs(ws []Workload, schemes ...Scheme) []Job {
	out := make([]Job, 0, len(ws)*len(schemes))
	for _, w := range ws {
		for _, s := range schemes {
			out = append(out, Job{Workload: w, Scheme: s})
		}
	}
	return out
}

// Result pairs a sweep job with its outcome. Exactly one of Stats/Err is
// meaningful.
type Result struct {
	Job   Job
	Stats RunStats
	// Meta carries scheme-specific extras (rpg2: "kernels", "distance";
	// prophet: "hints", "metaWays", "disableTP"). May be nil.
	Meta map[string]int
	Err  error
}

// Report is a detailed single-run outcome: the normalized stats plus
// scheme-specific metadata (rpg2: "kernels", "distance"; prophet: "hints",
// "metaWays", "disableTP").
type Report struct {
	Stats RunStats
	Meta  map[string]int
	// FromStore reports that the durable result store answered the job
	// without simulating it.
	FromStore bool
}

// Run evaluates one workload under one scheme, returning metrics normalized
// to the no-temporal-prefetching baseline on the same trace. The baseline
// is simulated at most once per workload per Evaluator and cached; unknown
// workloads and schemes surface as errors, never panics.
func (e *Evaluator) Run(ctx context.Context, w Workload, scheme Scheme) (RunStats, error) {
	rep, err := e.RunDetailed(ctx, w, scheme)
	return rep.Stats, err
}

// RunDetailed is Run plus scheme-specific metadata.
func (e *Evaluator) RunDetailed(ctx context.Context, w Workload, scheme Scheme) (Report, error) {
	return e.RunJob(ctx, Job{Workload: w, Scheme: scheme})
}

// RunJob is RunDetailed for a Job value: it evaluates one sweep job
// synchronously, which the prophetd evaluate endpoint uses instead of
// building a one-element Sweep. With a durable store attached, a stored
// result is returned without simulating (FromStore set), and a computed one
// writes through.
func (e *Evaluator) RunJob(ctx context.Context, j Job) (Report, error) {
	// The store answers before the workload is resolved: only resolvable
	// catalog and graph workloads are ever stored, and resolving one
	// builds the catalog, which would dominate a disk-tier answer.
	if rep, ok := e.storeGet(j); ok {
		return rep, nil
	}
	job, err := e.job(j)
	if err != nil {
		return Report{}, err
	}
	out := e.eng.Run(ctx, job)
	if out.Err != nil {
		return Report{}, fmt.Errorf("prophet: %s under %s: %w", j.Workload.Name, j.Scheme, out.Err)
	}
	rep := Report{Stats: summarize(out.Stats, out.Base), Meta: out.Meta}
	e.storePut(j, rep)
	return rep, nil
}

// Sweep fans the jobs out over the evaluator's worker pool and returns one
// Result per job, in job order. Baselines are shared through the cache: a
// 5-scheme sweep over one workload simulates its baseline once, not five
// times. Cancelling the context aborts the sweep promptly — jobs not yet
// started report the context error — and Sweep returns that error.
//
// With at least one live backend (WithBackends, or a runtime AddBackend /
// peer join), the sweep is instead coordinated across the fleet: jobs are
// cut into job-order chunks, each granted to the peer with the fewest
// chunks in flight, failed backends fail over to the local engine, and the merged results are byte-identical to
// an in-process sweep of the same jobs.
func (e *Evaluator) Sweep(ctx context.Context, jobs ...Job) ([]Result, error) {
	if e.disp.NumPeers() > 0 {
		return e.disp.Dispatch(ctx, jobs), ctx.Err()
	}
	return e.sweepLocal(ctx, jobs, nil)
}

// SweepStream is Sweep with incremental delivery: emit is called exactly
// once per job — identified by the job's index — as results become
// available, in completion order rather than job order (callers that need
// ordered output merge by index; the full index set is always covered).
// Calls to emit are serialized. Results are identical to Sweep's: the
// streamed rows, merged by index, reproduce the buffered sweep
// byte-for-byte.
//
// With live backends the fleet coordinator streams chunk completions;
// without, all jobs run through the one worker pool Sweep uses, and each
// row is emitted as its job finishes.
func (e *Evaluator) SweepStream(ctx context.Context, emit func(i int, r Result), jobs ...Job) error {
	if e.disp.NumPeers() > 0 {
		e.disp.DispatchFunc(ctx, jobs, emit)
		return ctx.Err()
	}
	// Workers hand rows to this goroutine, which alone calls emit. The
	// buffer holds every row, so a slow emit never stalls a worker.
	type row struct {
		i int
		r Result
	}
	rows := make(chan row, len(jobs))
	var err error
	go func() {
		defer close(rows)
		_, err = e.sweepLocal(ctx, jobs, func(i int, r Result) { rows <- row{i, r} })
	}()
	for x := range rows {
		emit(x.i, x.r)
	}
	return err
}

// SweepLocal is Sweep restricted to the in-process engine, ignoring any
// configured backends. The daemon's batch endpoint executes through this,
// so fleet fan-out terminates after one hop instead of cascading between
// peers.
func (e *Evaluator) SweepLocal(ctx context.Context, jobs ...Job) ([]Result, error) {
	return e.sweepLocal(ctx, jobs, nil)
}

// sweepLocal runs the jobs through the in-process engine's one sweep path
// (pipeline.Evaluator.SweepFunc) and returns their results in job order;
// done, if not nil, is called with each row as soon as it is final, from
// the goroutine that finished it. Cancelling the
// context aborts the sweep: jobs not yet started report the context error.
func (e *Evaluator) sweepLocal(ctx context.Context, jobs []Job, done func(i int, r Result)) ([]Result, error) {
	results := make([]Result, len(jobs))
	valid := make([]pipeline.Job, 0, len(jobs))
	validIdx := make([]int, 0, len(jobs))
	for i, j := range jobs {
		results[i] = Result{Job: j}
		pj, jerr := e.job(j)
		if jerr != nil {
			// Unresolvable workloads land in their result row; the rest
			// of the sweep still runs.
			results[i].Err = jerr
		} else if rep, ok := e.storeGet(j); ok {
			// Durable-store hits are answered without touching the
			// engine, so a warm restart's repeat sweep runs zero
			// simulations (not even the baselines the engine would
			// otherwise share per workload).
			results[i].Stats = rep.Stats
			results[i].Meta = rep.Meta
		} else {
			valid = append(valid, pj)
			validIdx = append(validIdx, i)
			continue
		}
		if done != nil {
			done(i, results[i])
		}
	}
	e.eng.SweepFunc(ctx, valid, func(k int, out pipeline.Outcome) {
		i := validIdx[k]
		if out.Err != nil {
			results[i].Err = fmt.Errorf("prophet: %s under %s: %w",
				jobs[i].Workload.Name, jobs[i].Scheme, out.Err)
		} else {
			results[i].Stats = summarize(out.Stats, out.Base)
			results[i].Meta = out.Meta
			e.storePut(jobs[i], Report{Stats: results[i].Stats, Meta: results[i].Meta})
		}
		if done != nil {
			done(i, results[i])
		}
	})
	return results, ctx.Err()
}

// job resolves a public Job into an engine job.
func (e *Evaluator) job(j Job) (pipeline.Job, error) {
	f, err := j.Workload.factory()
	if err != nil {
		return pipeline.Job{}, err
	}
	return pipeline.Job{
		Key:     j.Workload.key(),
		Factory: f,
		Scheme:  string(j.Scheme),
	}, nil
}

// Experiment reproduces one of the paper's tables or figures by ID (see
// ExperimentIDs), running its workloads on the evaluator's worker pool, and
// returns the rendered text. Output is byte-identical regardless of worker
// count.
//
// Each experiment prescribes its own system/pipeline configuration (that is
// what it reproduces — F17 overrides the L1 prefetcher, F18 the DRAM
// channels, F16 the analysis knobs); only the worker pool comes from this
// evaluator. Options like WithELAcc do not alter experiment output — use
// Run/Sweep to measure a custom configuration.
func (e *Evaluator) Experiment(id string, quick bool) (string, error) {
	res, err := experiments.Run(id, experiments.Options{Quick: quick, Workers: e.eng.Workers()})
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// RegisterScheme installs a custom prefetching scheme under name, making it
// available to every Evaluator (and the cmd tools) alongside the built-in
// self-registered schemes. The factory builds a fresh scheme instance per
// run, so implementations may keep per-run state without locking. Duplicate
// names are rejected.
func RegisterScheme(name string, factory SchemeFactory) error {
	return registry.Register(name, factory)
}

// SchemeFactory builds scheme instances; see internal/registry for the
// run-context contract.
type SchemeFactory = registry.Factory

// Experiment reproduces one of the paper's tables or figures by ID with a
// default evaluator (all CPUs).
func Experiment(id string, quick bool) (string, error) {
	return New().Experiment(id, quick)
}

// ExperimentIDs lists the reproducible artifacts in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range experiments.Registry() {
		out = append(out, e.ID)
	}
	return out
}
