// Package dispatch implements a work-queue coordinator that fans sweep work
// out across a fleet of backends: jobs are cut into consecutive job-order
// chunks, each granted to the live backend with the fewest of this
// dispatcher's chunks in flight, retried with jittered exponential backoff
// on backend failure, and failed over to an infallible local runner when a
// backend stays down — all while preserving the caller's job order, so the
// merged result is byte-identical to a single-backend run of the same
// deterministic jobs. Because chunks follow job order, a workload-major
// sweep hands each backend whole runs of one workload's cells, so each
// workload's baseline is simulated on one backend rather than on all.
//
// Fleet membership is dynamic: Add and Remove join and drain backends while
// dispatches are in flight. A removed backend stops receiving chunks at the
// next grant round and its in-flight retries are abandoned to local
// failover, so no job is ever lost or duplicated by churn. DispatchFunc
// additionally streams results as chunks complete, for callers that render
// a sweep progressively instead of waiting for the full merge.
//
// The package is generic over job and result types and knows nothing about
// HTTP or simulation: the prophet package instantiates it with
// (prophet.Job, prophet.Result) over remote prophetd backends, and tests
// drive it with plain values. A batch is all-or-nothing: a backend either
// returns exactly one result per job or the whole batch is retried and
// eventually re-run locally, so jobs are never lost or duplicated.
package dispatch

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Backend executes batches of jobs remotely (or anywhere else). Execute
// must return exactly one result per job, in job order; any error (or a
// length mismatch) marks the whole batch as failed and triggers retry and
// eventually failover. Execute must be safe for concurrent use: one
// dispatch may issue several chunks to the same backend at once.
type Backend[J, R any] interface {
	// Name identifies the backend in errors and logs (typically its URL).
	Name() string
	// Execute runs the batch and returns one result per job, in order.
	Execute(ctx context.Context, jobs []J) ([]R, error)
}

// Config assembles a Dispatcher.
type Config[J, R any] struct {
	// Backends is the initial fleet. Empty means every job runs locally
	// until peers join via Add.
	Backends []Backend[J, R]
	// Local runs a batch in process, returning one result per job, in
	// order. It is the failover target and must not fail (job-level errors
	// belong inside R). Required.
	Local func(ctx context.Context, jobs []J) []R
	// Pin reports jobs that must run locally regardless of the fleet (e.g.
	// workloads referencing local files a remote cannot read). Optional.
	Pin func(J) bool
	// Retries is the number of attempts per batch per backend before
	// failing over (default 2 — one try plus one retry).
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt with full jitter (default 25ms).
	Backoff time.Duration
	// MaxBatch is the chunk size in jobs. 0 cuts remote work into about
	// two chunks per live backend, and pinned or fleetless work into one.
	MaxBatch int
	// MaxInFlight caps the chunks a single backend executes concurrently,
	// across all Dispatch calls (default 4).
	MaxInFlight int
	// CacheGet consults a shared result tier (e.g. a durable result store)
	// before dispatch; a hit answers the job without touching backends or
	// the local runner. Optional.
	CacheGet func(J) (R, bool)
	// CachePut records results computed by remote backends into the shared
	// tier, so a coordinator's store accumulates the whole fleet's work.
	// Results from the local runner are not passed through it — the local
	// runner is the caller's own engine, which writes through on its own.
	// Optional.
	CachePut func(J, R)
	// Logf receives operational warnings (short local returns). Optional;
	// nil discards them.
	Logf func(format string, args ...any)

	// sleep overrides the inter-retry wait in tests.
	sleep func(ctx context.Context, d time.Duration)
	// jitter overrides retry backoff jitter in tests.
	jitter func(d time.Duration) time.Duration
}

// Stats is a point-in-time snapshot of dispatcher activity.
type Stats struct {
	// Remote counts jobs completed by remote backends.
	Remote int64
	// Local counts jobs completed by the local runner: pinned jobs,
	// no-backend dispatches, and failovers.
	Local int64
	// Retries counts batch retry attempts (not jobs).
	Retries int64
	// Failovers counts jobs re-run locally after a backend's retries were
	// exhausted (or abandoned by cancellation or peer removal).
	Failovers int64
	// Cached counts jobs answered by CacheGet without any execution.
	Cached int64
	// ShortLocal counts result slots the local runner left unfilled by
	// returning fewer results than jobs — merged zeros that would
	// otherwise pass silently.
	ShortLocal int64
}

// Dispatcher coordinates job lists over a dynamic backend fleet. It is
// safe for concurrent use; each Dispatch call merges its own results while
// sharing the fleet, its capacity accounting, and the counters.
type Dispatcher[J, R any] struct {
	cfg Config[J, R]

	mu    sync.Mutex
	cond  *sync.Cond
	peers []*peer[J, R] // live fleet, in join order

	remote, local, retries, failovers, cached, shortLocal atomic.Int64
}

// peer wraps a live backend with the coordinator's accounting: chunks in
// flight (capacity and placement) and the drain flag.
type peer[J, R any] struct {
	b        Backend[J, R]
	inflight atomic.Int64
	gone     atomic.Bool // set by Remove: abandon retries, fail over
}

// New validates cfg and builds a Dispatcher. Local is required.
func New[J, R any](cfg Config[J, R]) *Dispatcher[J, R] {
	if cfg.Local == nil {
		panic("dispatch: Config.Local is required")
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	if cfg.jitter == nil {
		cfg.jitter = fullJitter
	}
	d := &Dispatcher[J, R]{cfg: cfg}
	d.cond = sync.NewCond(&d.mu)
	for _, b := range cfg.Backends {
		d.peers = append(d.peers, &peer[J, R]{b: b})
	}
	return d
}

// Stats reports cumulative dispatcher counters.
func (d *Dispatcher[J, R]) Stats() Stats {
	return Stats{
		Remote:     d.remote.Load(),
		Local:      d.local.Load(),
		Retries:    d.retries.Load(),
		Failovers:  d.failovers.Load(),
		Cached:     d.cached.Load(),
		ShortLocal: d.shortLocal.Load(),
	}
}

// Add joins a backend to the live fleet, effective from the next grant
// round of every in-flight dispatch. It reports false (and does nothing)
// when a backend with the same name is already present.
func (d *Dispatcher[J, R]) Add(b Backend[J, R]) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.peers {
		if p.b.Name() == b.Name() {
			return false
		}
	}
	d.peers = append(d.peers, &peer[J, R]{b: b})
	d.cond.Broadcast() // idle dispatches may have work for the newcomer
	return true
}

// Remove drains the named backend: it stops receiving chunks immediately,
// and chunks it is still retrying abandon the backend and fail over to the
// local runner, so no job is lost or duplicated. It reports false when the
// backend is not in the fleet.
func (d *Dispatcher[J, R]) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range d.peers {
		if p.b.Name() == name {
			p.gone.Store(true)
			d.peers = append(d.peers[:i], d.peers[i+1:]...)
			d.cond.Broadcast()
			return true
		}
	}
	return false
}

// Peers lists the live fleet's backend names in join order.
func (d *Dispatcher[J, R]) Peers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.peers))
	for i, p := range d.peers {
		out[i] = p.b.Name()
	}
	return out
}

// NumPeers reports the live fleet size.
func (d *Dispatcher[J, R]) NumPeers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.peers)
}

// runState is the per-Dispatch bookkeeping shared by the grant loop and
// its chunk goroutines. pending holds the chunks not yet granted, each a
// bounded, ascending index list into jobs; pending and active are guarded
// by Dispatcher.mu.
type runState[J, R any] struct {
	jobs    []J
	out     []R
	pending [][]int
	active  int

	emitMu sync.Mutex
	emitFn func(i int, r R)
}

// emit streams the results at idx to the caller's sink, serialized so
// concurrent chunk completions never interleave rows.
func (r *runState[J, R]) emit(idx []int) {
	if r.emitFn == nil {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	for _, i := range idx {
		r.emitFn(i, r.out[i])
	}
}

// Dispatch distributes jobs over the live fleet, executes the chunks
// concurrently as backends free capacity, and returns one result per job
// in the original job order. Backend failures degrade to the local runner;
// Dispatch itself never fails. Cancelling ctx short-circuits retries and
// grants — outstanding chunks fall through to the local runner, which is
// expected to surface the context error in its per-job results.
//
// With CacheGet configured, every job is offered to the shared result tier
// first: hits are merged straight into the output and only the remainder
// is dispatched, so a warm cache dispatches nothing at all.
func (d *Dispatcher[J, R]) Dispatch(ctx context.Context, jobs []J) []R {
	return d.dispatch(ctx, jobs, nil)
}

// DispatchFunc is Dispatch with incremental delivery: emit is called once
// per job — identified by its index into jobs — as results become
// available (cache hits first, then chunk by chunk as execution
// completes). Calls to emit are serialized but arrive in chunk-completion
// order, not job order; callers that need ordered output merge by index.
// The fully merged slice is still returned, identical to Dispatch's.
func (d *Dispatcher[J, R]) DispatchFunc(ctx context.Context, jobs []J, emit func(i int, r R)) []R {
	return d.dispatch(ctx, jobs, emit)
}

func (d *Dispatcher[J, R]) dispatch(ctx context.Context, jobs []J, emit func(i int, r R)) []R {
	out := make([]R, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	run := &runState[J, R]{jobs: jobs, out: out, emitFn: emit}

	// pending lists the job indexes still needing execution; nil means all.
	var pending []int
	if d.cfg.CacheGet != nil {
		pending = make([]int, 0, len(jobs))
		var hits []int
		for i, j := range jobs {
			if r, ok := d.cfg.CacheGet(j); ok {
				out[i] = r
				hits = append(hits, i)
				continue
			}
			pending = append(pending, i)
		}
		d.cached.Add(int64(len(hits)))
		run.emit(hits)
		if len(pending) == 0 {
			return out
		}
	}

	peers := d.NumPeers()
	if peers == 0 {
		if emit == nil {
			d.runLocal(ctx, jobs, pending, out)
			return out
		}
		// Streaming without a fleet: run chunk by chunk so the caller
		// still sees progressive results.
		if pending == nil {
			pending = allIndexes(len(jobs))
		}
		for _, c := range chunkIndexes(pending, d.cfg.MaxBatch) {
			d.runLocal(ctx, jobs, c, out)
			run.emit(c)
		}
		return out
	}

	// Split off pinned jobs, then cut the remainder into consecutive
	// chunks. Index lists stay in ascending job order, so each chunk
	// preserves the caller's relative ordering.
	var remote, pinned []int
	assign := func(i int) {
		if d.cfg.Pin != nil && d.cfg.Pin(jobs[i]) {
			pinned = append(pinned, i)
			return
		}
		remote = append(remote, i)
	}
	if pending == nil {
		for i := range jobs {
			assign(i)
		}
	} else {
		for _, i := range pending {
			assign(i)
		}
	}

	size := d.cfg.MaxBatch
	if size <= 0 {
		// About two chunks per backend leaves slack to shift work toward
		// faster backends mid-sweep.
		size = max(1, (len(remote)+2*peers-1)/(2*peers))
	}
	run.pending = chunkIndexes(remote, size)

	if len(pinned) > 0 {
		// Pinned work streams at the same granularity as remote shards:
		// chunked by MaxBatch, executed sequentially off the grant loop.
		run.active++
		go func() {
			for _, c := range chunkIndexes(pinned, d.cfg.MaxBatch) {
				d.runLocal(ctx, jobs, c, out)
				run.emit(c)
			}
			d.mu.Lock()
			run.active--
			d.cond.Broadcast()
			d.mu.Unlock()
		}()
	}

	// The grant loop: place pending chunks whenever capacity frees up or
	// the fleet changes, wait otherwise, finish when everything has run.
	// Cancellation must also wake the loop so queued chunks can fail over.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop()
	d.mu.Lock()
	for {
		granted := d.grantLocked(ctx, run)
		if len(run.pending) == 0 && run.active == 0 {
			break
		}
		if len(run.pending) > 0 && granted == 0 && run.active == 0 && d.idleLocked() {
			// No grant, nothing of ours running, fleet fully idle: no
			// future broadcast would unblock us. Fail the remainder over
			// instead of deadlocking.
			d.failoverAllLocked(ctx, run)
			continue
		}
		d.cond.Wait()
	}
	d.mu.Unlock()
	return out
}

// grantLocked runs one placement round under d.mu and spawns a goroutine
// per grant. Returns the number of chunks started (including failovers). A
// cancelled context or an empty fleet fails everything over.
func (d *Dispatcher[J, R]) grantLocked(ctx context.Context, run *runState[J, R]) int {
	if len(run.pending) == 0 {
		return 0
	}
	if ctx.Err() != nil || len(d.peers) == 0 {
		return d.failoverAllLocked(ctx, run)
	}
	load := make([]int, len(d.peers))
	for i, p := range d.peers {
		load[i] = int(p.inflight.Load())
	}
	grants := place(load, d.cfg.MaxInFlight, len(run.pending))
	for k, i := range grants {
		p := d.peers[i]
		p.inflight.Add(1)
		run.active++
		go d.runChunk(ctx, run, p, run.pending[k])
	}
	run.pending = run.pending[len(grants):]
	return len(grants)
}

// place grants pending chunks in job order: each goes to the peer with the
// fewest chunks in flight (load, counted by this dispatcher across all its
// dispatches) that is below maxInFlight, ties to the earliest-joined peer.
// It returns the peer index of each granted chunk, for a prefix of the n
// pending chunks; the rest wait because every peer is at capacity. load is
// updated in place.
func place(load []int, maxInFlight, n int) []int {
	var grants []int
	for len(grants) < n {
		best := -1
		for i, l := range load {
			if l < maxInFlight && (best < 0 || l < load[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		load[best]++
		grants = append(grants, best)
	}
	return grants
}

// failoverAllLocked sends every pending chunk to the local runner.
func (d *Dispatcher[J, R]) failoverAllLocked(ctx context.Context, run *runState[J, R]) int {
	started := len(run.pending)
	for _, c := range run.pending {
		run.active++
		go func(idx []int) {
			d.failovers.Add(int64(len(idx)))
			d.runLocal(ctx, run.jobs, idx, run.out)
			run.emit(idx)
			d.mu.Lock()
			run.active--
			d.cond.Broadcast()
			d.mu.Unlock()
		}(c)
	}
	run.pending = nil
	return started
}

// idleLocked reports whether no chunk is in flight anywhere on the fleet.
func (d *Dispatcher[J, R]) idleLocked() bool {
	for _, p := range d.peers {
		if p.inflight.Load() > 0 {
			return false
		}
	}
	return true
}

// runChunk executes one granted chunk, releases the backend's capacity
// slot, and wakes every grant loop waiting for it.
func (d *Dispatcher[J, R]) runChunk(ctx context.Context, run *runState[J, R], p *peer[J, R], idx []int) {
	d.runBatch(ctx, p, run, idx)
	p.inflight.Add(-1)
	d.mu.Lock()
	run.active--
	d.cond.Broadcast()
	d.mu.Unlock()
}

// runBatch executes one backend chunk with retries, falling back to the
// local runner when every attempt fails, the context is cancelled, or the
// backend is drained from the fleet mid-retry.
func (d *Dispatcher[J, R]) runBatch(ctx context.Context, p *peer[J, R], run *runState[J, R], idx []int) {
	batch := gather(run.jobs, idx)
	backoff := d.cfg.Backoff
	for attempt := 0; attempt < d.cfg.Retries; attempt++ {
		if attempt > 0 {
			d.retries.Add(1)
			d.cfg.sleep(ctx, d.cfg.jitter(backoff))
			backoff *= 2
		}
		if ctx.Err() != nil {
			break // no point retrying a cancelled sweep
		}
		if p.gone.Load() {
			break // backend drained: don't send it anything new
		}
		res, err := p.b.Execute(ctx, batch)
		if err == nil && len(res) != len(batch) {
			err = fmt.Errorf("dispatch: backend %s returned %d results for %d jobs",
				p.b.Name(), len(res), len(batch))
		}
		if err == nil {
			d.remote.Add(int64(len(idx)))
			scatter(run.out, idx, res)
			if d.cfg.CachePut != nil {
				// Persist remote work into the shared tier: this is how a
				// coordinator's store accumulates results computed by the
				// whole fleet.
				for k, i := range idx {
					d.cfg.CachePut(run.jobs[i], res[k])
				}
			}
			run.emit(idx)
			return
		}
	}
	d.failovers.Add(int64(len(idx)))
	d.runLocal(ctx, run.jobs, idx, run.out)
	run.emit(idx)
}

// runLocal executes the jobs at idx (all jobs when idx is nil) through the
// local runner and scatters the results. The local runner is trusted to
// return one result per job; a short return leaves the missing slots at
// their zero value — counted in Stats.ShortLocal and logged, because a
// silent zero in a merged sweep is indistinguishable from a real result.
func (d *Dispatcher[J, R]) runLocal(ctx context.Context, jobs []J, idx []int, out []R) {
	if idx == nil {
		d.local.Add(int64(len(jobs)))
		res := d.cfg.Local(ctx, jobs)
		if len(res) < len(jobs) {
			d.noteShortLocal(len(jobs), len(res))
		}
		copy(out, res)
		return
	}
	d.local.Add(int64(len(idx)))
	res := d.cfg.Local(ctx, gather(jobs, idx))
	if len(res) < len(idx) {
		d.noteShortLocal(len(idx), len(res))
	}
	scatter(out, idx, res)
}

func (d *Dispatcher[J, R]) noteShortLocal(want, got int) {
	d.shortLocal.Add(int64(want - got))
	d.logf("dispatch: local runner returned %d results for %d jobs; %d slots left at zero value",
		got, want, want-got)
}

func (d *Dispatcher[J, R]) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// allIndexes returns [0, n).
func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// chunkIndexes splits an ascending index list into consecutive chunks of
// at most size entries (size <= 0 = one chunk).
func chunkIndexes(idx []int, size int) [][]int {
	if len(idx) == 0 {
		return nil
	}
	if size <= 0 || size >= len(idx) {
		return [][]int{idx}
	}
	var out [][]int
	for len(idx) > 0 {
		n := size
		if n > len(idx) {
			n = len(idx)
		}
		out = append(out, idx[:n:n])
		idx = idx[n:]
	}
	return out
}

// gather collects jobs[idx...] preserving idx order.
func gather[J any](jobs []J, idx []int) []J {
	batch := make([]J, len(idx))
	for k, i := range idx {
		batch[k] = jobs[i]
	}
	return batch
}

// scatter writes batch results back to their original positions.
func scatter[R any](out []R, idx []int, res []R) {
	for k, i := range idx {
		if k < len(res) {
			out[i] = res[k]
		}
	}
}

// sleepCtx waits for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// fullJitter spreads a retry delay uniformly over [d/2, d], so a
// coordinator's many concurrent chunks don't hammer a recovering backend
// in lockstep.
func fullJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(d-half+1)
}
