package prophet_test

import (
	"context"
	"math"
	"testing"

	"prophet"
)

func TestCatalogAndFind(t *testing.T) {
	names := prophet.Catalog()
	if len(names) < 20 {
		t.Fatalf("catalog has only %d workloads", len(names))
	}
	for _, n := range []string{"mcf", "gcc_166", "bfs_100000_16"} {
		if _, err := prophet.Find(n); err != nil {
			t.Errorf("Find(%q): %v", n, err)
		}
	}
	if _, err := prophet.Find("not_a_workload"); err == nil {
		t.Error("bogus name accepted")
	}
	// Custom graph sizes parse even outside the CRONO list.
	if _, err := prophet.Find("bfs_1234_4"); err != nil {
		t.Errorf("custom graph name rejected: %v", err)
	}
}

func TestEvaluateBaselineIsUnity(t *testing.T) {
	w, _ := prophet.Find("sphinx3")
	w = w.WithRecords(40_000)
	r, err := prophet.New().Run(context.Background(), w, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup != 1.0 || r.NormalizedTraffic != 1.0 {
		t.Fatalf("baseline not normalized to itself: %+v", r)
	}
	if r.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
}

func TestEvaluateUnknownScheme(t *testing.T) {
	w, _ := prophet.Find("sphinx3")
	if _, err := prophet.New().Run(context.Background(), w.WithRecords(10_000), prophet.Scheme("nope")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	w, _ := prophet.Find("omnetpp")
	w = w.WithRecords(80_000)
	s := prophet.New().NewSession()
	if err := s.Profile(w); err != nil {
		t.Fatal(err)
	}
	if s.Loops() != 1 {
		t.Fatalf("Loops = %d", s.Loops())
	}
	bin := s.Optimize()
	if bin.PCHints == 0 || bin.PCHints > 128 {
		t.Fatalf("PCHints = %d, want in (0,128]", bin.PCHints)
	}
	if bin.MetaWays <= 0 && !bin.TPDisabled {
		t.Fatalf("binary has no resizing hint: %+v", bin)
	}
	r, err := s.Run(context.Background(), bin, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1.0 {
		t.Fatalf("optimized binary speedup %.3f on omnetpp; expected a gain", r.Speedup)
	}
	if r.Coverage <= 0 {
		t.Fatal("no coverage")
	}
}

func TestProphetBeatsTriangelOnHeadlineWorkloads(t *testing.T) {
	// The paper's headline: Prophet's profile-guided management beats the
	// runtime scheme where short-term heuristics mispredict. The five sweep
	// workloads run at catalog length, where every temporal cell prefetches,
	// so a change that silently disables a prefetcher fails here.
	names := []string{"mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"}
	ws := make([]prophet.Workload, len(names))
	for i, name := range names {
		w, err := prophet.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	res, err := prophet.New().Sweep(context.Background(), prophet.Jobs(ws, prophet.Triangel, prophet.Prophet)...)
	if err != nil {
		t.Fatal(err)
	}
	var logSum float64
	for i, name := range names {
		tr, pr := res[2*i], res[2*i+1]
		for _, r := range []prophet.Result{tr, pr} {
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", name, r.Job.Scheme, r.Err)
			}
			if r.Stats.Raw.TPUseful == 0 {
				t.Errorf("%s/%s: no useful prefetches", name, r.Job.Scheme)
			}
		}
		ratio := pr.Stats.Speedup / tr.Stats.Speedup
		logSum += math.Log(ratio)
		t.Logf("%s: prophet %.3f / triangel %.3f = %.3f", name, pr.Stats.Speedup, tr.Stats.Speedup, ratio)
		if (name == "omnetpp" || name == "soplex_pds-50") && ratio <= 1 {
			t.Errorf("%s: Prophet %.3f <= Triangel %.3f", name, pr.Stats.Speedup, tr.Stats.Speedup)
		}
	}
	gm := math.Exp(logSum / float64(len(names)))
	t.Logf("geomean prophet/triangel %.3f", gm)
	if gm <= 1 {
		t.Errorf("geomean prophet/triangel %.3f, want > 1", gm)
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := prophet.ExperimentIDs()
	if len(ids) != 19 {
		t.Fatalf("ExperimentIDs = %d entries", len(ids))
	}
	out, err := prophet.Experiment("ST", true)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty experiment output")
	}
	if _, err := prophet.Experiment("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestDeterministicEvaluate(t *testing.T) {
	w, _ := prophet.Find("xalancbmk")
	w = w.WithRecords(30_000)
	// Two fresh evaluators: neither run can reuse the other's baseline.
	a, _ := prophet.New().Run(context.Background(), w, prophet.Triangel)
	b, _ := prophet.New().Run(context.Background(), w, prophet.Triangel)
	if a != b {
		t.Fatalf("Run not deterministic: %+v vs %+v", a, b)
	}
}
