package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"prophet/internal/mem"
	"prophet/internal/registry"
	"prophet/internal/sim"
	"prophet/internal/workloads"
)

func evalJobs(records uint64) []Job {
	var jobs []Job
	for _, name := range []string{"sphinx3", "xalancbmk"} {
		w, _ := workloads.Get(name)
		factory := func() mem.Source { return w.Source(records) }
		for _, scheme := range []string{"baseline", "triage", "triangel"} {
			jobs = append(jobs, Job{Key: name, Factory: factory, Scheme: scheme})
		}
	}
	return jobs
}

// TestBaselineSingleflight: concurrent Baseline calls for one key simulate
// exactly once.
func TestBaselineSingleflight(t *testing.T) {
	ev := NewEvaluator(Default(), 8)
	w, _ := workloads.Get("sphinx3")
	factory := func() mem.Source { return w.Source(20_000) }
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.Baseline("sphinx3", factory)
		}()
	}
	wg.Wait()
	hits, misses := ev.CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", misses)
	}
	if hits != 7 {
		t.Fatalf("hits = %d, want 7", hits)
	}
}

// TestSweepOrderAndBaselineSharing: outcomes come back in job order and the
// three schemes of each workload share one baseline simulation.
func TestSweepOrderAndBaselineSharing(t *testing.T) {
	ev := NewEvaluator(Default(), 4)
	jobs := evalJobs(20_000)
	outs, err := ev.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if out.Job.Key != jobs[i].Key || out.Job.Scheme != jobs[i].Scheme {
			t.Fatalf("outcome %d out of order: got %s/%s want %s/%s",
				i, out.Job.Key, out.Job.Scheme, jobs[i].Key, jobs[i].Scheme)
		}
		if out.Base.IPC() <= 0 {
			t.Fatalf("job %d missing baseline", i)
		}
	}
	if _, misses := ev.CacheStats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per workload)", misses)
	}
	// The baseline scheme's stats are the cached baseline itself.
	if outs[0].Stats != outs[0].Base {
		t.Fatal("baseline scheme did not reuse the cached run")
	}
}

// TestRunUnknownScheme: unregistered names error cleanly.
func TestRunUnknownScheme(t *testing.T) {
	ev := NewEvaluator(Default(), 1)
	w, _ := workloads.Get("sphinx3")
	out := ev.Run(context.Background(), Job{
		Key:     "sphinx3",
		Factory: func() mem.Source { return w.Source(1_000) },
		Scheme:  "no-such-scheme",
	})
	if out.Err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestSweepEmpty: zero jobs is a no-op, not a hang.
func TestSweepEmpty(t *testing.T) {
	ev := NewEvaluator(Default(), 4)
	outs, err := ev.Sweep(context.Background())
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty sweep: outs=%d err=%v", len(outs), err)
	}
}

// hookScheme is a scheme registered for these tests. Its run calls the hook
// the running test set, if any, while the job holds its trace, and returns
// the job's baseline.
const hookScheme = "pipeline-test-hook"

var hook atomic.Pointer[func(registry.Context)]

func init() {
	registry.MustRegister(hookScheme, func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			if h := hook.Load(); h != nil {
				(*h)(ctx)
			}
			return registry.Result{Stats: ctx.Baseline()}, nil
		})
	})
}

// withHook sets the hook scheme's hook until the test ends.
func withHook(t *testing.T, h func(registry.Context)) {
	hook.Store(&h)
	t.Cleanup(func() { hook.Store(nil) })
}

// storedTrace returns the trace store's packed trace for key, or nil.
func storedTrace(key string) *mem.Packed {
	traces.mu.Lock()
	defer traces.mu.Unlock()
	if ent := traces.m[key]; ent != nil {
		return ent.packed.Load()
	}
	return nil
}

// checkStoreEmpty fails the test unless the trace store holds no key.
func checkStoreEmpty(t *testing.T, after string) {
	t.Helper()
	traces.mu.Lock()
	keys := len(traces.m)
	traces.mu.Unlock()
	if n, bytes := HeldTraces(); keys != 0 || n != 0 || bytes != 0 {
		t.Fatalf("after %s the trace store holds %d keys, %d packed traces, %d bytes", after, keys, n, bytes)
	}
}

// countingJobs returns a job per scheme for each workload, at records, with
// a factory that counts its calls in packs[workload index].
func countingJobs(prefix string, names []string, schemes []string, records uint64, packs []atomic.Int64) []Job {
	var jobs []Job
	for k, name := range names {
		w, _ := workloads.Get(name)
		factory := func() mem.Source {
			packs[k].Add(1)
			return w.Source(records)
		}
		for _, scheme := range schemes {
			jobs = append(jobs, Job{Key: prefix + name, Factory: factory, Scheme: scheme})
		}
	}
	return jobs
}

// TestTraceStorePacksOncePerSweep: every pass of every job of a key —
// baseline, Prophet's profile and optimized runs, Triage, Triangel — replays
// one trace, packed by the key's factory exactly once per sweep, and the
// store holds nothing once the sweep returns. A single Run is a one-job
// sweep: its passes share one pack too.
func TestTraceStorePacksOncePerSweep(t *testing.T) {
	names := []string{"sphinx3", "xalancbmk"}
	packs := make([]atomic.Int64, len(names))
	jobs := countingJobs("packs-", names, []string{"baseline", "prophet", "triage", "triangel"}, 10_000, packs)
	outs, err := NewEvaluator(Default(), 2).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
	}
	for k := range packs {
		if n := packs[k].Load(); n != 1 {
			t.Fatalf("%s: the factory ran %d times in one sweep, want 1", names[k], n)
		}
	}
	checkStoreEmpty(t, "Sweep")

	packs[0].Store(0)
	if out := NewEvaluator(Default(), 1).Run(context.Background(), jobs[1]); out.Err != nil {
		t.Fatal(out.Err)
	}
	if n := packs[0].Load(); n != 1 {
		t.Fatalf("a prophet Run packed its trace %d times, want 1", n)
	}
	checkStoreEmpty(t, "Run")
}

// TestTraceStoreReleasedOnEveryPath: jobs that end without a simulation — an
// unknown scheme, a cancelled sweep — still end their leases, and pack
// nothing.
func TestTraceStoreReleasedOnEveryPath(t *testing.T) {
	packs := make([]atomic.Int64, 1)
	jobs := countingJobs("released-", []string{"sphinx3"}, []string{"no-such-scheme", "triage"}, 5_000, packs)
	ev := NewEvaluator(Default(), 2)
	outs, _ := ev.Sweep(context.Background(), jobs[0])
	if outs[0].Err == nil {
		t.Fatal("unknown scheme accepted")
	}
	checkStoreEmpty(t, "a sweep of an unknown scheme")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Sweep(ctx, jobs...); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	checkStoreEmpty(t, "a cancelled sweep")
	if n := packs[0].Load(); n != 0 {
		t.Fatalf("jobs that never simulated packed %d times", n)
	}
}

// TestTraceStoreConcurrentSweepsPackOnce: two sweeps of independent
// evaluators whose jobs over one key overlap pack it once. Each job waits in
// the hook until the other has started, so both hold the key together.
func TestTraceStoreConcurrentSweepsPackOnce(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	withHook(t, func(registry.Context) {
		arrived.Done()
		arrived.Wait()
	})
	packs := make([]atomic.Int64, 1)
	job := countingJobs("concurrent-", []string{"sphinx3"}, []string{hookScheme}, 10_000, packs)[0]
	var wg sync.WaitGroup
	outs := make([][]Outcome, 2)
	for s := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[s], _ = NewEvaluator(Default(), 1).Sweep(context.Background(), job)
		}()
	}
	wg.Wait()
	for s := range outs {
		if err := outs[s][0].Err; err != nil {
			t.Fatal(err)
		}
	}
	if outs[0][0].Stats != outs[1][0].Stats {
		t.Fatal("the two sweeps disagree")
	}
	if n := packs[0].Load(); n != 1 {
		t.Fatalf("two concurrent sweeps over one key packed it %d times, want 1", n)
	}
	checkStoreEmpty(t, "both sweeps")
}

// TestTraceStoreBoundedByWorkers: a sweep runs its jobs grouped by key, so a
// shuffled 5-key × 4-scheme sweep at 2 workers holds at most one trace per
// worker plus one, as the hook sees at each of its runs, and its results
// equal a serial workload-major sweep's.
func TestTraceStoreBoundedByWorkers(t *testing.T) {
	names := []string{"mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"}
	packs := make([]atomic.Int64, len(names))
	ordered := countingJobs("bounded-", names, []string{"baseline", "triage", "triangel", hookScheme}, 10_000, packs)
	jobs := slices.Clone(ordered)
	rng := mem.NewPRNG(3)
	for i := len(jobs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	var most, seen atomic.Int64
	withHook(t, func(registry.Context) {
		n, _ := HeldTraces()
		seen.Add(1)
		for m := most.Load(); int64(n) > m && !most.CompareAndSwap(m, int64(n)); m = most.Load() {
		}
	})
	outs, err := NewEvaluator(Default(), 2).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != int64(len(names)) {
		t.Fatalf("the hook ran %d times, want %d", seen.Load(), len(names))
	}
	if m := most.Load(); m < 1 || m > 3 {
		t.Fatalf("the store held up to %d traces during a 2-worker sweep, want 1 to 3", m)
	}
	for k := range packs {
		if n := packs[k].Load(); n != 1 {
			t.Fatalf("%s packed %d times, want 1", names[k], n)
		}
	}
	checkStoreEmpty(t, "Sweep")

	want, err := NewEvaluator(Default(), 1).Sweep(context.Background(), ordered...)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		k := slices.IndexFunc(ordered, func(j Job) bool { return j.Key == out.Job.Key && j.Scheme == out.Job.Scheme })
		if out.Err != nil || out.Job.Key != jobs[i].Key || out.Job.Scheme != jobs[i].Scheme ||
			out.Stats != want[k].Stats || out.Base != want[k].Base {
			t.Fatalf("job %d (%s/%s) differs from the serial workload-major sweep", i, out.Job.Key, out.Job.Scheme)
		}
	}
}

// TestTraceStoreDropsFinishedKeys: once a key's last job ends, nothing
// keeps its trace reachable, so a collection during the sweep's next key
// frees it.
func TestTraceStoreDropsFinishedKeys(t *testing.T) {
	packs := make([]atomic.Int64, 2)
	jobs := countingJobs("dropped-", []string{"sphinx3", "xalancbmk"}, []string{hookScheme}, 5_000, packs)
	var first weak.Pointer[mem.Packed]
	var checked, freed bool
	withHook(t, func(registry.Context) {
		if p := storedTrace(jobs[0].Key); p != nil {
			first = weak.Make(p)
			return
		}
		runtime.GC()
		checked, freed = true, first.Value() == nil
	})
	if _, err := NewEvaluator(Default(), 1).Sweep(context.Background(), jobs...); err != nil {
		t.Fatal(err)
	}
	if !checked || !freed {
		t.Fatalf("checked %v: the first key's trace stayed reachable while the second key ran", checked)
	}
}

// TestTraceStoreFootprint pins the trace store's per-record cost: while a
// job over mcf at its catalog length runs, the store's trace replays the
// generated records exactly and holds at most 8 bytes a record (an
// []mem.Access holds 24).
func TestTraceStoreFootprint(t *testing.T) {
	w, _ := workloads.Get("mcf")
	key := "footprint-mcf"
	var trace *mem.Packed
	withHook(t, func(registry.Context) { trace = storedTrace(key) })
	job := Job{Key: key, Factory: func() mem.Source { return w.Source(0) }, Scheme: hookScheme}
	if _, err := NewEvaluator(Default(), 1).Sweep(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if trace == nil {
		t.Fatal("the store held no trace while the job ran")
	}
	want := mem.Collect(w.Source(0), 0)
	if trace.Len() != len(want) {
		t.Fatalf("stored trace has %d records, want %d", trace.Len(), len(want))
	}
	if perRecord := float64(trace.Bytes()) / float64(trace.Len()); perRecord > 8 {
		t.Fatalf("trace store holds %.2f B/record (%d bytes for %d records), want <= 8",
			perRecord, trace.Bytes(), trace.Len())
	}
	got := mem.Collect(trace.Source(), 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTraceStoreSharesPackedSource: a factory that hands out fresh replays
// of one packed trace, as the file: workload cache does, is held as that
// trace while its job runs, not as a second encoding of it.
func TestTraceStoreSharesPackedSource(t *testing.T) {
	w, _ := workloads.Get("sphinx3")
	trace := mem.Pack(w.Source(5_000))
	key := "shared-sphinx3"
	var held *mem.Packed
	withHook(t, func(registry.Context) { held = storedTrace(key) })
	job := Job{Key: key, Factory: func() mem.Source { return trace.Source() }, Scheme: hookScheme}
	if _, err := NewEvaluator(Default(), 1).Sweep(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if held != trace {
		t.Fatal("the trace store re-encoded a packed source instead of sharing it")
	}
}

// TestBaselineCacheBounded: an evaluator that simulates more distinct
// baselines than its bound holds only the bound, and an evicted key
// recomputes the same stats.
func TestBaselineCacheBounded(t *testing.T) {
	ev := NewEvaluator(Default(), 1)
	w, _ := workloads.Get("sphinx3")
	baseline := func(records uint64) sim.Stats {
		return ev.Baseline(fmt.Sprintf("sphinx3@%d", records), func() mem.Source { return w.Source(records) })
	}
	first := baseline(100)
	for i := uint64(1); i <= baselineEntries; i++ {
		baseline(100 + i)
	}
	if n := ev.baselines.Stats().Entries; n != baselineEntries {
		t.Fatalf("cache holds %d baselines after %d distinct keys, want the bound %d", n, baselineEntries+1, baselineEntries)
	}
	_, before := ev.CacheStats()
	if again := baseline(100); again != first {
		t.Fatalf("evicted baseline recomputed to %+v, want %+v", again, first)
	}
	if _, after := ev.CacheStats(); after != before+1 {
		t.Fatalf("misses %d -> %d: the oldest key was not evicted", before, after)
	}
}
