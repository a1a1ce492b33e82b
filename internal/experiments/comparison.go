package experiments

import (
	"context"
	"fmt"

	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/textplot"
)

// schemeRun is one workload's outcome under one scheme.
type schemeRun struct {
	Speedup  float64
	Traffic  float64 // normalized to baseline
	Coverage float64
	Accuracy float64
}

// comparison is the shared RPG2 / Triangel / Prophet evaluation over a
// workload list — the data behind Figures 10, 11, 12, 15, 17 and 18.
type comparison struct {
	Labels   []string
	RPG2     []schemeRun
	Triangel []schemeRun
	Prophet  []schemeRun
	Notes    []string
}

// namedWorkload pairs a label with its trace factory. Key names the trace
// for the evaluator's baseline memo; comparison entries set it (see
// Options.traceKey), the learning studies key on Name.
type namedWorkload struct {
	Name    string
	Key     string
	Factory pipeline.SourceFactory
}

// comparisonSchemes are the registered schemes every comparison evaluates,
// in figure order.
var comparisonSchemes = []string{"rpg2", "triangel", "prophet"}

// runComparisonDefault is runComparison for the figures that evaluate the
// paper's default configuration (F10–F12, F15); extra workloads ride along
// at the end of the list.
func runComparisonDefault(opts Options, list []namedWorkload) comparison {
	for _, e := range opts.Extra {
		list = append(list, namedWorkload{Name: e.Name, Key: "extra:" + opts.traceKey(e.Name), Factory: e.Factory})
	}
	return runComparison(pipeline.Default(), opts, list)
}

// runComparison evaluates all three schemes against the no-TP baseline
// through an Evaluator sweep: every (workload, scheme) pair runs on the
// worker pool, and each workload's baseline is simulated once — shared
// across the three schemes via the evaluator's cache — instead of once per
// scheme. Results are assembled by job index, so the output is
// byte-identical to a serial evaluation.
func runComparison(cfg pipeline.Config, opts Options, list []namedWorkload) comparison {
	ev := pipeline.NewEvaluator(cfg, opts.workers())
	jobs := make([]pipeline.Job, 0, len(list)*len(comparisonSchemes))
	for _, w := range list {
		for _, s := range comparisonSchemes {
			jobs = append(jobs, pipeline.Job{Key: w.Key, Factory: w.Factory, Scheme: s})
		}
	}
	outs, err := ev.Sweep(context.Background(), jobs...)
	if err != nil {
		panic(fmt.Sprintf("experiments: comparison sweep: %v", err))
	}
	for _, out := range outs {
		// Registered schemes on catalog workloads cannot fail; a zero
		// Stats row would silently corrupt the rendered figure, so any
		// error here is a programming bug worth stopping on.
		if out.Err != nil {
			panic(fmt.Sprintf("experiments: %s under %s: %v", out.Job.Key, out.Job.Scheme, out.Err))
		}
	}

	var c comparison
	for i, w := range list {
		rp := outs[i*len(comparisonSchemes)]
		tr := outs[i*len(comparisonSchemes)+1]
		pr := outs[i*len(comparisonSchemes)+2]
		base := rp.Base
		mk := func(s sim.Stats) schemeRun {
			return schemeRun{
				Speedup:  stats.Speedup(s.IPC(), base.IPC()),
				Traffic:  stats.NormalizedTraffic(s.DRAMTraffic(), base.DRAMTraffic()),
				Coverage: stats.Coverage(base.L2DemandMisses, s.L2DemandMisses),
				Accuracy: s.TPAccuracy(),
			}
		}

		rpRun := mk(rp.Stats)
		if rp.Meta["kernels"] == 0 || rp.Meta["distance"] == 0 {
			// No qualifying kernels (or rolled back): no prefetches
			// were issued, so accuracy is undefined — the paper sets
			// it to 0 (Figure 12 footnote).
			rpRun.Accuracy = 0
		}

		c.Labels = append(c.Labels, w.Name)
		c.RPG2 = append(c.RPG2, rpRun)
		c.Triangel = append(c.Triangel, mk(tr.Stats))
		c.Prophet = append(c.Prophet, mk(pr.Stats))
		c.Notes = append(c.Notes,
			fmt.Sprintf("%s: baseIPC=%.3f rpg2Kernels=%d rpg2Dist=%d prophetWays=%d",
				w.Name, base.IPC(), rp.Meta["kernels"], rp.Meta["distance"], pr.Stats.MetaWays))
	}
	return c
}

func (c comparison) series(metric func(schemeRun) float64) []textplot.Series {
	get := func(runs []schemeRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = metric(r)
		}
		return out
	}
	return []textplot.Series{
		{Name: "RPG2", Values: get(c.RPG2)},
		{Name: "Triangel", Values: get(c.Triangel)},
		{Name: "Prophet", Values: get(c.Prophet)},
	}
}

// specWorkloads builds the named workload list for SPEC comparisons.
func specWorkloads(opts Options) []namedWorkload {
	var out []namedWorkload
	for _, w := range specSet(opts) {
		out = append(out, namedWorkload{Name: w.Name, Key: opts.traceKey(w.Name), Factory: factoryFor(w, opts)})
	}
	return out
}

// graphWorkloads builds the named workload list for CRONO comparisons.
func graphWorkloads(opts Options) []namedWorkload {
	var out []namedWorkload
	for _, g := range graphSet(opts) {
		out = append(out, namedWorkload{Name: g.Name, Key: opts.traceKey(g.Name), Factory: graphFactory(g, opts)})
	}
	return out
}
