package prophet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prophet"
)

// update regenerates the golden RunStats fixtures. The fixtures pin the
// simulator's observable behaviour: any engine change that alters a single
// counter or metric — however small — shows up as a byte diff here. They were
// generated before the hot-path optimization pass and must never drift; run
// `go test -run TestGoldenRunStats -update` only when a deliberate
// model-behaviour change is being made and reviewed.
var update = flag.Bool("update", false, "rewrite golden RunStats fixtures")

// goldenCells are the pinned workload x scheme cells. They cover the three
// temporal-scheme packages (triage, triangel, prophet via their shared
// table/compressor code), RPG2's software-prefetch flow, the plain baseline
// simulator, and gaze's fused spatial-temporal engine.
var goldenCells = []struct {
	workload string
	scheme   prophet.Scheme
	records  uint64
}{
	{"mcf", prophet.Prophet, 20_000},
	{"omnetpp", prophet.Triangel, 20_000},
	{"sphinx3", prophet.Triage, 20_000},
	{"xalancbmk", prophet.RPG2, 20_000},
	{"mcf", prophet.Baseline, 20_000},
	{"omnetpp", prophet.Gaze, 20_000},
}

func goldenPath(workload string, scheme prophet.Scheme) string {
	return filepath.Join("testdata", "golden", workload+"_"+string(scheme)+".json")
}

// TestGoldenRunStats locks the full RunStats (normalized metrics plus raw
// counters) of representative cells to committed fixtures, byte for byte.
// This is the determinism guard for the performance work: optimizations may
// change how fast the simulator runs, never what it computes.
func TestGoldenRunStats(t *testing.T) {
	ev := prophet.New(prophet.WithWorkers(1))
	for _, cell := range goldenCells {
		name := cell.workload + "/" + string(cell.scheme)
		t.Run(name, func(t *testing.T) {
			w, err := prophet.Find(cell.workload)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ev.Run(context.Background(), w.WithRecords(cell.records), cell.scheme)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath(cell.workload, cell.scheme), st)
		})
	}
}

// checkGolden compares st, rendered as indented JSON, with the fixture at
// path byte for byte, or rewrites the fixture under -update.
func checkGolden(t *testing.T, path string, st prophet.RunStats) {
	t.Helper()
	got, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("RunStats diverged from golden fixture %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenRunStatsRepeatable re-runs one golden cell twice on one evaluator
// and across two evaluators, requiring identical bytes — same seed and
// config must produce byte-identical RunStats within a process too.
func TestGoldenRunStatsRepeatable(t *testing.T) {
	w, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithRecords(20_000)
	marshal := func(ev *prophet.Evaluator) []byte {
		t.Helper()
		st, err := ev.Run(context.Background(), w, prophet.Prophet)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ev := prophet.New(prophet.WithWorkers(1))
	first := marshal(ev)
	if second := marshal(ev); !bytes.Equal(first, second) {
		t.Errorf("same evaluator, same cell: results differ\n%s\n%s", first, second)
	}
	if fresh := marshal(prophet.New(prophet.WithWorkers(1))); !bytes.Equal(first, fresh) {
		t.Errorf("fresh evaluator, same cell: results differ\n%s\n%s", first, fresh)
	}
}
