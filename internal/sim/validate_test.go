package sim_test

import (
	"context"
	"testing"

	"prophet/internal/graphs"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/registry"
)

// TestEverySchemeValidates runs every registered scheme, through the
// pipeline evaluator, on two graph workloads and checks each scheme's Stats
// and its cached baseline against sim.Stats.Validate. The graph kernels
// store to their arrays, so dirty lines reach DRAM and the writeback
// invariants are exercised, not vacuous.
func TestEverySchemeValidates(t *testing.T) {
	const records = 80_000
	schemes := registry.Names()
	if len(schemes) < 4 {
		t.Fatalf("only %d schemes registered: %v", len(schemes), schemes)
	}
	var jobs []pipeline.Job
	for _, name := range []string{"bfs_80000_8", "bc_56384_8"} {
		g, err := graphs.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			jobs = append(jobs, pipeline.Job{
				Key:     name,
				Factory: func() mem.Source { return g.Source(records) },
				Scheme:  scheme,
			})
		}
	}
	out, err := pipeline.NewEvaluator(pipeline.Default(), 2).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		name := job.Key + "/" + job.Scheme
		if out[i].Err != nil {
			t.Fatalf("%s: %v", name, out[i].Err)
		}
		st := out[i].Stats
		if err := st.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := out[i].Base.Validate(); err != nil {
			t.Errorf("%s (baseline): %v", name, err)
		}
		if st.DRAM.Writes == 0 {
			t.Errorf("%s: no DRAM writes, so the writeback invariants are vacuous", name)
		}
	}
}
