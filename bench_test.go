// Benchmarks: one per table/figure of the paper (the harness behind
// `go test -bench`), plus micro-benchmarks of the core structures. The
// figure benchmarks run the same runners as cmd/experiments in Quick mode
// (reduced workload sets, scaled traces) and report the headline metric of
// each figure via b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the whole evaluation at CI-friendly cost. Run cmd/experiments for the
// full-scale numbers; each figure prints its shape target beside them.
package prophet_test

import (
	"context"
	"testing"

	"prophet"

	"prophet/internal/core"
	"prophet/internal/experiments"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/temporal"
	"prophet/internal/workloads"
)

// benchOpts is the shared quick configuration for figure benchmarks.
var benchOpts = experiments.Options{Quick: true}

// runExperiment executes one experiment per iteration and reports the value
// of a series at a label as the benchmark's custom metric. Allocations are
// always reported, so allocs/op shows without -benchmem.
func runExperiment(b *testing.B, id, series, label, metric string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if series != "" {
		if v, ok := last.Value(series, label); ok {
			b.ReportMetric(v, metric)
		}
	}
}

func BenchmarkTable1Config(b *testing.B)   { runExperiment(b, "T1", "", "", "") }
func BenchmarkFigure1Pattern(b *testing.B) { runExperiment(b, "F1", "", "", "") }

func BenchmarkFigure6AccuracyLevels(b *testing.B) { runExperiment(b, "F6", "", "", "") }

func BenchmarkFigure8MarkovTargets(b *testing.B) {
	runExperiment(b, "F8", "T=1", "Mean", "T1-fraction")
}

func BenchmarkFigure10Speedup(b *testing.B) {
	runExperiment(b, "F10", "Prophet", "Geomean", "prophet-speedup")
}

func BenchmarkFigure11Traffic(b *testing.B) {
	runExperiment(b, "F11", "Prophet", "Geomean", "prophet-traffic")
}

func BenchmarkFigure12CovAcc(b *testing.B) {
	runExperiment(b, "F12", "Prophet", "Geomean", "prophet-coverage")
}

func BenchmarkFigure13GccLearning(b *testing.B) {
	runExperiment(b, "F13", "Direct", "Geomean", "direct-speedup")
}

func BenchmarkFigure14LearnGeneralize(b *testing.B) {
	runExperiment(b, "F14", "Direct", "Geomean", "direct-speedup")
}

func BenchmarkFigure15Graph(b *testing.B) {
	runExperiment(b, "F15", "Prophet", "Geomean", "prophet-speedup")
}

func BenchmarkFigure16aELACC(b *testing.B) {
	runExperiment(b, "F16a", "EL_ACC=0.15", "Geomean", "elacc015-speedup")
}

func BenchmarkFigure16bPriorityBits(b *testing.B) {
	runExperiment(b, "F16b", "n=2", "Geomean", "n2-speedup")
}

func BenchmarkFigure16cMVBCandidates(b *testing.B) {
	runExperiment(b, "F16c", "Candidate=1", "Geomean", "cand1-speedup")
}

func BenchmarkFigure17IPCP(b *testing.B) {
	runExperiment(b, "F17", "Prophet", "Geomean", "prophet-speedup")
}

func BenchmarkFigure18Bandwidth(b *testing.B) {
	runExperiment(b, "F18", "Prophet", "Geomean", "prophet-speedup")
}

func BenchmarkFigure19Ablation(b *testing.B) {
	runExperiment(b, "F19", "+Resize", "Geomean", "full-prophet-speedup")
}

func BenchmarkOverheads(b *testing.B) { runExperiment(b, "OV", "", "", "") }

func BenchmarkStorageOverhead(b *testing.B) { runExperiment(b, "ST", "", "", "") }

func BenchmarkEnergyOverhead(b *testing.B) {
	runExperiment(b, "EN", "energy overhead", "Mean", "energy-overhead")
}

// --- Evaluator API benchmarks ---

// sweepBenchJobs is the acceptance workload: a 3-scheme x 4-workload sweep.
func sweepBenchJobs(b *testing.B) []prophet.Job {
	b.Helper()
	var ws []prophet.Workload
	for _, name := range []string{"mcf", "omnetpp", "sphinx3", "xalancbmk"} {
		w, err := prophet.Find(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w.WithRecords(30_000))
	}
	return prophet.Jobs(ws, prophet.Triage, prophet.Triangel, prophet.Prophet)
}

// BenchmarkEvaluatorSweep runs the 3x4 grid through a long-lived Evaluator:
// per-workload baselines are simulated once per iteration (cache) and the
// grid fans out over the worker pool.
func BenchmarkEvaluatorSweep(b *testing.B) {
	jobs := sweepBenchJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := prophet.New()
		results, err := ev.Sweep(context.Background(), jobs...)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// --- micro-benchmarks of the core structures ---

// BenchmarkSimulatorThroughput measures raw simulation speed (records/sec)
// of the full system with the Prophet engine attached.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := pipeline.Default()
	w := workloads.Omnetpp().Scaled(35)
	p := pipeline.NewProphet(cfg)
	p.ProfileAndLearn(w.Source(50_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(w.Source(50_000))
	}
	b.ReportMetric(50_000*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkMetadataTable measures table insert+lookup throughput.
func BenchmarkMetadataTable(b *testing.B) {
	tb := temporal.NewTable(temporal.DefaultTableConfig(), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := uint32(i) % 500_000
		tb.Insert(src, src+1, uint8(i&3))
		tb.Lookup(src)
	}
}

// BenchmarkVictimBuffer measures MVB insert+lookup throughput.
func BenchmarkVictimBuffer(b *testing.B) {
	vb := core.NewVictimBuffer(core.DefaultMVBEntries, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint32(i) % 100_000
		vb.Insert(key, uint32(i))
		vb.Lookup(key, 0xFFFFFFFF)
	}
}

// BenchmarkWorkloadGeneration measures trace-generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	w := workloads.MCF()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := w.Source(10_000)
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	}
	b.ReportMetric(10_000*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkHintBufferLookup measures the per-demand-request hint check.
func BenchmarkHintBufferLookup(b *testing.B) {
	hb := core.NewHintBuffer(core.HintBufferEntries)
	hints := map[mem.Addr]core.Hint{}
	for i := 0; i < 128; i++ {
		hints[mem.Addr(0x400000+i*64)] = core.Hint{Insert: true, Priority: uint8(i & 3)}
	}
	hb.Install(hints, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.Lookup(mem.Addr(0x400000 + (i%256)*64))
	}
}
