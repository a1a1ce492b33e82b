package prophet_test

import (
	"context"
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
	// runtime scheme where short-term heuristics mispredict.
	for _, name := range []string{"omnetpp", "soplex_pds-50"} {
		w, _ := prophet.Find(name)
		w = w.WithRecords(120_000)
		ev := prophet.New()
		pr, err := ev.Run(context.Background(), w, prophet.Prophet)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ev.Run(context.Background(), w, prophet.Triangel)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Speedup <= tr.Speedup {
			t.Errorf("%s: Prophet %.3f <= Triangel %.3f", name, pr.Speedup, tr.Speedup)
		}
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
