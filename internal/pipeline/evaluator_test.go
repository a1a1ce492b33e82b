package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prophet/internal/mem"
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

// TestKeyTraceHeldUntilLastJob: a sweep holds a key's packed trace from the
// first pass that returns one until the key's last job ends, replaying it
// instead of calling the factory again, and never holds a generator.
func TestKeyTraceHeldUntilLastJob(t *testing.T) {
	trace := mem.Pack(mem.NewSliceSource(make([]mem.Access, 100)))
	calls := 0
	key := &keyTrace{jobs: 2}
	f := key.factory(func() mem.Source { calls++; return trace.Source() })
	for range 3 {
		if src := f().(*mem.PackedSource); src.Trace() != trace || src.Len() != 100 {
			t.Fatal("the held replay is not a fresh replay of the trace")
		}
	}
	key.end()
	if calls != 1 || key.packed != trace {
		t.Fatalf("factory called %d times, trace held: %v; want 1, true", calls, key.packed == trace)
	}
	key.end()
	if key.packed != nil {
		t.Fatal("the trace is still held after the key's last job ended")
	}
	w, _ := workloads.Get("sphinx3")
	gen := &keyTrace{jobs: 1}
	f = gen.factory(func() mem.Source { calls++; return w.Source(100) })
	f()
	f()
	if calls != 3 || gen.packed != nil {
		t.Fatalf("a generator's factory ran %d times, want 2, and its trace was held", calls-1)
	}
}
