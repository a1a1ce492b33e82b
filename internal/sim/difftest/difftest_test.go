package difftest

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/temporal"
	"prophet/internal/triage"
	"prophet/internal/workloads"
)

// The block sizes under test. CI pins them explicitly; the default covers
// the same sizes so a plain `go test ./...` proves the whole contract too.
var blocksFlag = flag.String("difftest.blocks", "1,64,4096", "comma-separated block sizes to diff against the sequential reference")

func parseList(t *testing.T, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			t.Fatalf("bad matrix element %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out
}

func matrix(t *testing.T) []Variant {
	return Matrix(parseList(t, *blocksFlag))
}

// validate fails t when st breaks a counter invariant (sim.Stats.Validate);
// name says which run produced st. Every Stats the harness produces, the
// reference included, is checked, so a violation flags a broken simulator
// even where every block shape agrees with the reference.
func validate(t *testing.T, name string, st sim.Stats) {
	t.Helper()
	if err := st.Validate(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// run is sim.RunOpts with the invariant check applied to its result.
func run(t *testing.T, name string, opts sim.Opts, engine temporal.Engine, src mem.Source) sim.Stats {
	t.Helper()
	st := sim.RunOpts(sim.Default(), opts, engine, nil, nil, nil, src)
	validate(t, name, st)
	return st
}

// corpusCells mirrors the golden-fixture corpus at the repository root: one
// cell per scheme family, covering the temporal-table engines, RPG2's
// software-prefetch flow, the fused spatial-temporal gaze engine, and the
// plain baseline.
var corpusCells = []struct {
	workload string
	scheme   string
	records  uint64
}{
	{"mcf", "prophet", 20_000},
	{"omnetpp", "triangel", 20_000},
	{"sphinx3", "triage", 20_000},
	{"xalancbmk", "rpg2", 20_000},
	{"mcf", "baseline", 20_000},
	{"omnetpp", "gaze", 20_000},
}

// corpusWorkers are the evaluator worker counts the corpus is replayed
// at. One worker runs the cells one after another; more run them
// concurrently, so they share the scratch pools and recycled engine
// storage while they run — and must still produce the one-worker Stats.
var corpusWorkers = []int{1, 4}

// runCorpus replays every corpus cell through a fresh pipeline evaluator
// configured with the given execution shape, as one sweep over workers
// concurrent runs.
func runCorpus(t *testing.T, opts sim.Opts, workers int) []pipeline.Outcome {
	t.Helper()
	cfg := pipeline.Default()
	cfg.Run = opts
	ev := pipeline.NewEvaluator(cfg, workers)
	jobs := make([]pipeline.Job, len(corpusCells))
	for i, cell := range corpusCells {
		w, ok := workloads.Get(cell.workload)
		if !ok {
			t.Fatalf("unknown workload %q", cell.workload)
		}
		records := cell.records
		jobs[i] = pipeline.Job{
			Key:     cell.workload + "@difftest",
			Factory: func() mem.Source { return w.Source(records) },
			Scheme:  cell.scheme,
		}
	}
	out, err := ev.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range corpusCells {
		name := fmt.Sprintf("%s/%s at %+v, %d workers", cell.workload, cell.scheme, opts, workers)
		if out[i].Err != nil {
			t.Fatalf("%s: %v", name, out[i].Err)
		}
		validate(t, name, out[i].Stats)
		validate(t, name+" (baseline)", out[i].Base)
	}
	return out
}

// TestCorpusEquivalence is the harness's core claim: every golden-corpus
// cell, replayed through every block size in the matrix and at every
// evaluator worker count, produces Stats bit-identical to the
// record-at-a-time, one-worker sequential reference — scheme results,
// cached baselines, and scheme metadata alike.
func TestCorpusEquivalence(t *testing.T) {
	ref := runCorpus(t, Sequential.Opts, 1)
	for _, v := range matrix(t) {
		t.Run(v.Name, func(t *testing.T) {
			for _, workers := range corpusWorkers {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					got := runCorpus(t, v.Opts, workers)
					for i, cell := range corpusCells {
						name := cell.workload + "/" + cell.scheme
						if d := Diff(ref[i].Stats, got[i].Stats); d != nil {
							t.Errorf("%s: stats diverged from sequential reference:\n  %s",
								name, strings.Join(d, "\n  "))
						}
						if d := Diff(ref[i].Base, got[i].Base); d != nil {
							t.Errorf("%s: baseline stats diverged:\n  %s", name, strings.Join(d, "\n  "))
						}
						if !reflect.DeepEqual(ref[i].Meta, got[i].Meta) {
							t.Errorf("%s: scheme metadata diverged: %v != %v", name, ref[i].Meta, got[i].Meta)
						}
					}
				})
			}
		})
	}
}

// TestGeneratedWorkloadEquivalence widens coverage beyond the corpus: every
// cataloged generated workload, under both the bare system and a stateful
// temporal engine, through the full matrix. Trace lengths are short — the
// point is breadth of access patterns, not depth.
func TestGeneratedWorkloadEquivalence(t *testing.T) {
	const records = 4_000
	engines := []struct {
		name string
		make func() temporal.Engine // returns nil for the baseline system
	}{
		{"baseline", func() temporal.Engine { return nil }},
		{"triage", func() temporal.Engine { return triage.New(triage.Default()) }},
	}
	vs := matrix(t)
	for _, w := range workloads.All() {
		recs := mem.Materialize(w.Source(records))
		for _, eng := range engines {
			name := w.Name + "/" + eng.name
			ref := run(t, name+" at sequential", Sequential.Opts, eng.make(), mem.NewSliceSource(recs))
			for _, v := range vs {
				got := run(t, name+" at "+v.Name, v.Opts, eng.make(), mem.NewSliceSource(recs))
				if d := Diff(ref, got); d != nil {
					t.Errorf("%s at %s diverged:\n  %s", name, v.Name, strings.Join(d, "\n  "))
				}
			}
		}
	}
}

// TestStreamSourceEquivalence runs the matrix over a native trace stream,
// a source that decodes records as the core consumes them instead of
// replaying an in-memory slice. Every shape must see the exact record
// sequence the record-at-a-time reader delivers.
func TestStreamSourceEquivalence(t *testing.T) {
	w, ok := workloads.Get("omnetpp")
	if !ok {
		t.Fatal("unknown workload omnetpp")
	}
	var buf bytes.Buffer
	if _, err := mem.WriteTrace(&buf, w.Source(6_000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	open := func() mem.Source {
		tr, err := mem.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := run(t, "trace replay at sequential", Sequential.Opts, nil, open())
	for _, v := range matrix(t) {
		got := run(t, "trace replay at "+v.Name, v.Opts, nil, open())
		if d := Diff(ref, got); d != nil {
			t.Errorf("trace replay at %s diverged:\n  %s", v.Name, strings.Join(d, "\n  "))
		}
	}
}

// TestMixedOptsPoolStress hammers one configuration's scratch pools with
// concurrent runs at mixed block shapes. The pools are keyed by
// (Config, Opts), so no run may ever receive scratch prepared for a
// different shape — under -race this catches pool cross-contamination, and
// the stats check catches any state bleed between shapes.
func TestMixedOptsPoolStress(t *testing.T) {
	w, ok := workloads.Get("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	recs := mem.Materialize(w.Source(5_000))
	ref := run(t, "mcf at sequential", Sequential.Opts, nil, mem.NewSliceSource(recs))
	variants := append([]Variant{Sequential}, matrix(t)...)
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, v := range variants {
			wg.Add(1)
			go func(v Variant) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					st := run(t, "mcf at "+v.Name, v.Opts, nil, mem.NewSliceSource(recs))
					if d := Diff(ref, st); d != nil {
						t.Errorf("%s diverged under mixed-shape load:\n  %s", v.Name, strings.Join(d, "\n  "))
					}
				}
			}(v)
		}
	}
	wg.Wait()
}

// FuzzBlockShape lets the fuzzer pick the execution shape: an arbitrary
// block size (including negative = sequential and absurdly large) over an
// arbitrary cataloged workload must reproduce the sequential reference
// exactly.
func FuzzBlockShape(f *testing.F) {
	f.Add(uint8(0), uint16(1000), 1)
	f.Add(uint8(1), uint16(2000), 4096)
	f.Add(uint8(2), uint16(500), -7)
	f.Add(uint8(3), uint16(3000), 64)
	f.Add(uint8(4), uint16(1), 1<<14)
	all := workloads.All()
	f.Fuzz(func(t *testing.T, wsel uint8, records uint16, block int) {
		w := all[int(wsel)%len(all)]
		// Bound the block size (it sizes the scratch buffer) but keep the
		// sign, so negative = sequential stays reachable.
		block %= 1 << 15
		n := uint64(records)%4_096 + 1
		recs := mem.Materialize(w.Source(n))
		ref := run(t, w.Name+" at sequential", Sequential.Opts, nil, mem.NewSliceSource(recs))
		name := fmt.Sprintf("%s at block=%d", w.Name, block)
		got := run(t, name, sim.Opts{BlockRecords: block}, nil, mem.NewSliceSource(recs))
		if d := Diff(ref, got); d != nil {
			t.Errorf("%s diverged:\n  %s", name, strings.Join(d, "\n  "))
		}
	})
}
