package graphs_test

import (
	"context"
	"fmt"
	"testing"

	"prophet/internal/graphs"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
)

// sweepRuns counts the runs of this file's tests in this process.
var sweepRuns int

// TestGraphSweepBuildsOnce: a graph workload runs its algorithm once and
// every pass replays the packed-trace memo's trace, so sweeping it under
// baseline, Triage, Triangel and Prophet at 1 and then 2 workers builds it
// exactly once, and both worker counts return the same rows.
func TestGraphSweepBuildsOnce(t *testing.T) {
	g, err := graphs.Parse("bfs_80000_8")
	if err != nil {
		t.Fatal(err)
	}
	// A length no other run of any test has used, so the key is new
	// whatever -count repeats the test in one process.
	sweepRuns++
	records := 30_000 + sweepRuns
	var jobs []pipeline.Job
	for _, s := range []string{"baseline", "triage", "triangel", "prophet"} {
		jobs = append(jobs, pipeline.Job{Key: g.Name, Factory: func() mem.Source { return g.Source(uint64(records)) }, Scheme: s})
	}
	before := mem.Traces.Stats().Misses
	var rows [2][]pipeline.Outcome
	for i, workers := range []int{1, 2} {
		rows[i], err = pipeline.NewEvaluator(pipeline.Default(), workers).Sweep(context.Background(), jobs...)
		if err != nil {
			t.Fatal(err)
		}
	}
	if built := mem.Traces.Stats().Misses - before; built != 1 {
		t.Fatalf("two sweeps built the graph trace %d times, want 1", built)
	}
	// The memo holds the trace packed: at most 8 bytes a record, against 24
	// for an []mem.Access.
	if p := g.Source(uint64(records)).(*mem.PackedSource).Trace(); p.Len() != records || p.Bytes() > 8*records {
		t.Fatalf("the held trace has %d records in %d bytes, want %d in at most %d", p.Len(), p.Bytes(), records, 8*records)
	}
	for k := range jobs {
		a, b := rows[0][k], rows[1][k]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: %v, %v", jobs[k].Scheme, a.Err, b.Err)
		}
		if a.Stats != b.Stats || a.Base != b.Base {
			t.Fatalf("%s: 1 and 2 workers disagree", jobs[k].Scheme)
		}
	}
}

// TestGraphSweepHoldsKeysInFlight: a sweep holds each key's trace until the
// key's last job ends, so eight graph keys in flight at once at 16 workers,
// twice the packed-trace memo's bound, are still built once each, and the
// rows match a serial sweep's.
func TestGraphSweepHoldsKeysInFlight(t *testing.T) {
	sweepRuns++
	records := uint64(10_000 + sweepRuns)
	var jobs []pipeline.Job
	for i := range 8 {
		g, err := graphs.Parse(fmt.Sprintf("bfs_%d_4", 20_000+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"triangel", "prophet"} {
			jobs = append(jobs, pipeline.Job{Key: g.Name, Factory: func() mem.Source { return g.Source(records) }, Scheme: s})
		}
	}
	before := mem.Traces.Stats().Misses
	wide, err := pipeline.NewEvaluator(pipeline.Default(), 16).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if built := mem.Traces.Stats().Misses - before; built != 8 {
		t.Fatalf("a 16-worker sweep of 8 graph keys built %d traces, want 8", built)
	}
	serial, err := pipeline.NewEvaluator(pipeline.Default(), 1).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for k := range jobs {
		a, b := wide[k], serial[k]
		if a.Err != nil || b.Err != nil || a.Stats != b.Stats || a.Base != b.Base {
			t.Fatalf("%s %s: 16 and 1 workers disagree (%v, %v)", jobs[k].Key, jobs[k].Scheme, a.Err, b.Err)
		}
	}
}
