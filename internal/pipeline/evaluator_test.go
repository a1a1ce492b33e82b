package pipeline

import (
	"context"
	"errors"
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

// storedTrace returns the trace store's packed trace for key, or nil.
func storedTrace(key string) *mem.Packed {
	trace, _ := traces.Do(context.Background(), key, func() (*mem.Packed, error) {
		return nil, errors.New("not stored")
	})
	return trace
}

// TestTraceStoreFootprint pins the trace store's per-record cost: after a
// sweep over mcf at its catalog length, the stored trace replays the
// generated records exactly and holds at most 8 bytes a record (an
// []mem.Access holds 24).
func TestTraceStoreFootprint(t *testing.T) {
	w, _ := workloads.Get("mcf")
	key := "footprint-mcf"
	job := Job{Key: key, Factory: func() mem.Source { return w.Source(0) }, Scheme: "baseline"}
	if _, err := NewEvaluator(Default(), 1).Sweep(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	trace := storedTrace(key)
	if trace == nil {
		t.Fatal("the sweep left no trace in the store")
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
// of one packed trace, as the file: workload cache does, is stored as that
// trace, not as a second encoding of it.
func TestTraceStoreSharesPackedSource(t *testing.T) {
	w, _ := workloads.Get("sphinx3")
	trace := mem.Pack(w.Source(5_000))
	key := fmt.Sprintf("shared-sphinx3-%p", trace) // fresh on every -count
	job := Job{Key: key, Factory: func() mem.Source { return trace.Source() }, Scheme: "baseline"}
	if _, err := NewEvaluator(Default(), 1).Sweep(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if storedTrace(key) != trace {
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
