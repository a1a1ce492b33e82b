package experiments

import (
	"fmt"

	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/temporal"
	"prophet/internal/textplot"
	"prophet/internal/triangel"
	"prophet/internal/workloads"
)

// Figure1 reproduces the Figure 1 analysis: a hot interleaved-pattern
// instruction (from omnetpp, footnote 2) observed under an unlimited-table
// temporal prefetcher, classified into useful (blue) and useless (red)
// metadata accesses, with Triangel's PatternConf trajectory overlaid. The
// headline claim — PatternConf collapses during red bursts and then rejects
// insertion for subsequent blue accesses — is quantified in the notes.
func Figure1(opts Options) Result {
	records := opts.records(60_000)
	spec := workloads.Spec{
		Name: "omnetpp-hot-pc",
		Seed: 99,
		Patterns: []workloads.PatternSpec{
			{Kind: workloads.NoisyTemporal, Weight: 1, SeqLines: 3000, NoiseRatio: 0.35, Gap: 4, PCSeed: 620},
		},
		Records: records,
	}
	gen := workloads.NewGenerator(spec, records)

	// Shadow oracle: an unlimited Markov table with no insertion policy
	// (footnote 1 of the paper).
	shadow := map[mem.Line]mem.Line{}
	var prev mem.Line
	havePrev := false

	tr := triangel.New(triangel.Default())
	defer tr.Release()

	const samples = 40
	every := int(records) / samples
	if every == 0 {
		every = 1
	}
	var confTrace []float64
	var blue, red, blueRejected uint64
	i := 0
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		line := a.Line()
		if havePrev {
			predicted, known := shadow[prev]
			isBlue := known && predicted == line
			insBefore := tr.TableStats().Insertions + tr.TableStats().Updates
			tr.OnAccess(temporal.AccessEvent{PC: a.PC, Line: line, Hit: false})
			inserted := tr.TableStats().Insertions+tr.TableStats().Updates > insBefore
			if isBlue {
				blue++
				if !inserted {
					blueRejected++
				}
			} else if known {
				red++
			}
			shadow[prev] = line
		} else {
			tr.OnAccess(temporal.AccessEvent{PC: a.PC, Line: line, Hit: false})
		}
		prev, havePrev = line, true
		if i%every == 0 {
			confTrace = append(confTrace, float64(tr.PatternConf(a.PC)))
		}
		i++
	}
	labels := make([]string, len(confTrace))
	for i := range labels {
		labels[i] = fmt.Sprintf("t%02d", i)
	}
	rejFrac := 0.0
	if blue > 0 {
		rejFrac = float64(blueRejected) / float64(blue)
	}
	return Result{
		ID:     "F1",
		Title:  "Interleaved metadata accesses vs Triangel PatternConf (Figure 1)",
		Labels: labels,
		Series: []textplot.Series{{Name: "PatternConf", Values: confTrace}},
		Notes: []string{
			fmt.Sprintf("blue (useful) metadata accesses: %d", blue),
			fmt.Sprintf("red (useless) metadata accesses: %d", red),
			fmt.Sprintf("useful accesses whose insertion Triangel rejected: %d (%.1f%%)", blueRejected, rejFrac*100),
			"shape target: interleaved blue/red stream; PatternConf dips reject a substantial share of useful insertions",
		},
	}
}

// Figure6 reproduces the per-instruction accuracy plot: omnetpp profiled
// under the simplified temporal prefetcher, PC accuracies falling into
// distinct high/medium/low levels.
func Figure6(opts Options) Result {
	cfg := pipeline.Default()
	w := workloads.Omnetpp()
	p := pipeline.NewProphet(cfg)
	counters := p.Profile(factoryFor(w, opts)())

	acc := map[mem.Addr]float64{}
	for pc, e := range counters.PC {
		if a := e.Accuracy(); a >= 0 {
			acc[pc] = a
		}
	}
	var labels []string
	var values []float64
	var high, med, low int
	for _, pc := range sortedPCs(acc) {
		labels = append(labels, fmt.Sprintf("pc_%x", uint64(pc)))
		values = append(values, acc[pc])
		switch {
		case acc[pc] >= 0.75:
			high++
		case acc[pc] >= 0.25:
			med++
		default:
			low++
		}
	}
	return Result{
		ID:     "F6",
		Title:  "Prefetching accuracy per memory instruction, omnetpp (Figure 6)",
		Labels: labels,
		Series: []textplot.Series{{Name: "accuracy", Values: values}},
		Notes: []string{
			fmt.Sprintf("level counts: high=%d medium=%d low=%d", high, med, low),
			"shape target: accuracies cluster into distinct levels usable by Equations 1-2",
		},
	}
}

// Figure8 reproduces the Markov-target histogram: the fraction of source
// addresses exhibiting T distinct successors, per workload.
func Figure8(opts Options) Result {
	set := specSet(opts)
	series := make([]textplot.Series, 5)
	for t := range series {
		series[t].Name = fmt.Sprintf("T=%d", t+1)
	}
	labels := make([]string, len(set))
	for t := range series {
		series[t].Values = make([]float64, len(set))
	}
	pipeline.ForEach(opts.workers(), len(set), func(wi int) {
		w := set[wi]
		h := temporal.NewTargetHistogram(5)
		train := temporal.NewTrainingUnit(1024)
		src := factoryFor(w, opts)()
		for {
			a, ok := src.Next()
			if !ok {
				break
			}
			if prev, ok := train.Observe(a.PC, a.Line()); ok && prev != a.Line() {
				h.Observe(uint64(prev), uint64(a.Line()))
			}
		}
		f := h.FractionsMin(2)
		labels[wi] = w.Name
		for t := range series {
			series[t].Values[wi] = f[t]
		}
	})
	labels = append(labels, "Mean")
	for t := range series {
		series[t].Values = append(series[t].Values, stats.Mean(series[t].Values))
	}
	return Result{
		ID:     "F8",
		Title:  "Markov target count distribution (Figure 8)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: T=1 majority, monotonically decreasing tail (paper: 54.85%/20.88%/9.71% for T=1/2/3)"},
	}
}

// Figure10 is the headline SPEC speedup comparison.
func Figure10(opts Options) Result {
	c := runComparisonDefault(opts, specWorkloads(opts))
	labels, series := withGeomean(c.Labels, c.series(func(r schemeRun) float64 { return r.Speedup }))
	return Result{
		ID:     "F10",
		Title:  "IPC speedup vs no-temporal-prefetcher baseline (Figure 10)",
		Labels: labels,
		Series: series,
		Notes: append(c.Notes,
			"shape target: Prophet > Triangel >> RPG2 ~= 1.0 on geomean (paper: 1.346 / 1.204 / 1.001)"),
	}
}

// Figure11 is the DRAM traffic comparison.
func Figure11(opts Options) Result {
	c := runComparisonDefault(opts, specWorkloads(opts))
	labels, series := withGeomean(c.Labels, c.series(func(r schemeRun) float64 { return r.Traffic }))
	return Result{
		ID:     "F11",
		Title:  "Normalized DRAM traffic (Figure 11)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: RPG2 ~= 1.0; Prophet adds a few % over Triangel (paper: +18.67% vs +10.33% over baseline)"},
	}
}

// Figure12 reports prefetching coverage and accuracy.
func Figure12(opts Options) Result {
	c := runComparisonDefault(opts, specWorkloads(opts))
	covLabels, covSeries := withGeomean(append([]string{}, c.Labels...), c.series(func(r schemeRun) float64 { return r.Coverage }))
	accSeries := c.series(func(r schemeRun) float64 { return r.Accuracy })
	accTable := textplot.Table{Title: "(b) Prefetching accuracy", Columns: append([]string{"workload"}, "RPG2", "Triangel", "Prophet")}
	for i, l := range c.Labels {
		accTable.AddRow(l, textplot.F(accSeries[0].Values[i]), textplot.F(accSeries[1].Values[i]), textplot.F(accSeries[2].Values[i]))
	}
	return Result{
		ID:     "F12",
		Title:  "Prefetching coverage (a) and accuracy (b) (Figure 12)",
		Labels: covLabels,
		Series: covSeries,
		Tables: []textplot.Table{accTable},
		Notes:  []string{"shape target: Prophet coverage > Triangel coverage (paper: 42.75% vs 28.08%); accuracies comparable"},
	}
}

// learnStages runs the Figure 13/14 protocol: a cumulative learning pipeline
// evaluated across all inputs after each learning step, bracketed by the
// runtime-only configuration ("Disable") and per-input direct profiling
// ("Direct").
func learnStages(cfg pipeline.Config, opts Options, evalInputs []namedWorkload, learnOrder []namedWorkload, stageNames []string) ([]string, []textplot.Series) {
	workers := opts.workers()
	ev := pipeline.NewEvaluator(cfg, workers)
	baseIPC := make([]float64, len(evalInputs))
	pipeline.ForEach(workers, len(evalInputs), func(i int) {
		baseIPC[i] = ev.Baseline(evalInputs[i].Name, evalInputs[i].Factory).IPC()
	})
	speedup := func(st sim.Stats, i int) float64 { return stats.Speedup(st.IPC(), baseIPC[i]) }

	var series []textplot.Series

	// Disable: the runtime scheme alone (Triage4 + Triangel metadata —
	// the Figure 19 ablation base).
	disable := textplot.Series{Name: "Disable", Values: make([]float64, len(evalInputs))}
	pipeline.ForEach(workers, len(evalInputs), func(i int) {
		eng := core.New(ablationConfig(cfg, core.Features{}), core.HintSet{}, nil)
		st := sim.Run(cfg.Sim, eng, nil, nil, nil, evalInputs[i].Factory())
		eng.Release()
		disable.Values[i] = speedup(st, i)
	})
	series = append(series, disable)

	// Cumulative learning stages: learning is inherently sequential, but
	// each stage's re-evaluation over every input fans out. Analyze is
	// forced before the fan-out so the parallel runs only read the hints.
	p := pipeline.NewProphet(cfg)
	for si, lw := range learnOrder {
		p.ProfileAndLearn(lw.Factory())
		p.Analyze()
		s := textplot.Series{Name: stageNames[si], Values: make([]float64, len(evalInputs))}
		pipeline.ForEach(workers, len(evalInputs), func(i int) {
			st := p.Run(evalInputs[i].Factory())
			s.Values[i] = speedup(st, i)
		})
		series = append(series, s)
	}

	// Direct: each input profiled for itself (the learning goal).
	direct := textplot.Series{Name: "Direct", Values: make([]float64, len(evalInputs))}
	pipeline.ForEach(workers, len(evalInputs), func(i int) {
		st, _ := pipeline.RunProphetDirect(cfg, evalInputs[i].Factory)
		direct.Values[i] = speedup(st, i)
	})
	series = append(series, direct)

	labels := make([]string, len(evalInputs))
	for i, w := range evalInputs {
		labels[i] = w.Name
	}
	return withGeomean(labels, series)
}

// ablationConfig builds the Prophet engine config for a feature subset at
// the evaluation degree (the "Triage4 + Triangel Meta" base when empty).
func ablationConfig(cfg pipeline.Config, f core.Features) core.Config {
	c := cfg.Prophet
	c.Features = f
	return c
}

// Figure13 is the gcc multi-input learning study.
func Figure13(opts Options) Result {
	cfg := pipeline.Default()
	names := workloads.GCCInputNames()
	if opts.Quick {
		names = []string{"166", "200", "expr", "typeck"}
	}
	var evals []namedWorkload
	for _, n := range names {
		w := workloads.GCC(n)
		if opts.Quick {
			w = w.Scaled(quickScale)
		}
		evals = append(evals, namedWorkload{Name: w.Name, Factory: factoryFor(w, opts)})
	}
	learnNames := []string{"166", "expr", "typeck", "expr2"}
	stageNames := []string{"+166", "+expr", "+typeck", "+expr2"}
	if opts.Quick {
		learnNames = []string{"166", "expr"}
		stageNames = []string{"+166", "+expr"}
	}
	var learn []namedWorkload
	for _, n := range learnNames {
		w := workloads.GCC(n)
		if opts.Quick {
			w = w.Scaled(quickScale)
		}
		learn = append(learn, namedWorkload{Name: w.Name, Factory: factoryFor(w, opts)})
	}
	labels, series := learnStages(cfg, opts, evals, learn, stageNames)
	return Result{
		ID:     "F13",
		Title:  "Prophet learning across gcc inputs (Figure 13)",
		Labels: labels,
		Series: series,
		Notes: []string{
			"shape target: each learned input approaches Direct; unseen gcc_200 improves after learning gcc_expr (shared Load E behaviour)",
		},
	}
}

// Figure14 generalizes the learning study to astar and soplex.
func Figure14(opts Options) Result {
	cfg := pipeline.Default()
	mk := func(w workloads.Workload) namedWorkload {
		if opts.Quick {
			w = w.Scaled(quickScale)
		}
		return namedWorkload{Name: w.Name, Factory: factoryFor(w, opts)}
	}
	astar := []namedWorkload{mk(workloads.AstarBiglakes()), mk(workloads.AstarRivers())}
	soplex := []namedWorkload{mk(workloads.Soplex("pds-50")), mk(workloads.Soplex("ref"))}

	aLabels, aSeries := learnStages(cfg, opts, astar, astar, []string{"+lake", "+river"})
	sLabels, sSeries := learnStages(cfg, opts, soplex, soplex, []string{"+pds", "+ref"})

	// Merge the two families into one result; stage names are positional.
	labels := append(aLabels, sLabels...)
	series := make([]textplot.Series, len(aSeries))
	for i := range aSeries {
		name := aSeries[i].Name
		if name != "Disable" && name != "Direct" {
			name = fmt.Sprintf("+input%d", i)
		}
		series[i] = textplot.Series{Name: name, Values: append(aSeries[i].Values, sSeries[i].Values...)}
	}
	return Result{
		ID:     "F14",
		Title:  "Learning generalization: astar and soplex inputs (Figure 14)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: after learning both inputs the single binary matches Direct on each"},
	}
}

// Figure15 is the CRONO graph-workload comparison.
func Figure15(opts Options) Result {
	c := runComparisonDefault(opts, graphWorkloads(opts))
	labels, series := withGeomean(c.Labels, c.series(func(r schemeRun) float64 { return r.Speedup }))
	return Result{
		ID:     "F15",
		Title:  "IPC speedup on graph workloads (Figure 15)",
		Labels: labels,
		Series: series,
		Notes: append(c.Notes,
			"shape target: Prophet leads; RPG2 competitive (stride kernels are its strength); paper: 1.1485 / 1.0911 / 1.0841"),
	}
}

// sensitivity sweeps one Prophet parameter over the SPEC set, profiling each
// workload once and re-analyzing per setting.
func sensitivity(opts Options, settingNames []string, apply func(cfg *pipeline.Config, setting int)) ([]string, []textplot.Series) {
	set := specWorkloads(opts)
	base := pipeline.Default()
	workers := opts.workers()
	ev := pipeline.NewEvaluator(base, workers)
	series := make([]textplot.Series, len(settingNames))
	for i := range series {
		series[i].Name = settingNames[i]
		series[i].Values = make([]float64, len(set))
	}
	labels := make([]string, len(set))
	pipeline.ForEach(workers, len(set), func(wi int) {
		w := set[wi]
		baseStats := ev.Baseline(w.Name, w.Factory)
		// Step 1 once per workload; the counters feed every setting.
		probe := pipeline.NewProphet(base)
		counters := probe.Profile(w.Factory())
		for si := range settingNames {
			cfg := pipeline.Default()
			apply(&cfg, si)
			p := pipeline.NewProphet(cfg)
			p.Learn(counters.Clone())
			st := p.Run(w.Factory())
			series[si].Values[wi] = stats.Speedup(st.IPC(), baseStats.IPC())
		}
		labels[wi] = w.Name
	})
	return withGeomean(labels, series)
}

// Figure16a sweeps EL_ACC.
func Figure16a(opts Options) Result {
	values := []float64{0.05, 0.15, 0.25}
	labels, series := sensitivity(opts,
		[]string{"EL_ACC=0.05", "EL_ACC=0.15", "EL_ACC=0.25"},
		func(cfg *pipeline.Config, i int) { cfg.Analysis.ELAcc = values[i] })
	return Result{
		ID:     "F16a",
		Title:  "Sensitivity: EL_ACC insertion threshold (Figure 16a)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: the middle setting (0.15) is best or tied-best on geomean"},
	}
}

// Figure16b sweeps the replacement priority bits n.
func Figure16b(opts Options) Result {
	labels, series := sensitivity(opts,
		[]string{"n=1", "n=2", "n=3"},
		func(cfg *pipeline.Config, i int) { cfg.Analysis.PriorityBits = i + 1 })
	return Result{
		ID:     "F16b",
		Title:  "Sensitivity: replacement priority bits n (Figure 16b)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: n>=2 beats n=1 with diminishing returns (paper adopts n=2)"},
	}
}

// Figure16c sweeps the Multi-path Victim Buffer candidate budget.
func Figure16c(opts Options) Result {
	values := []int{1, 2, 4}
	labels, series := sensitivity(opts,
		[]string{"Candidate=1", "Candidate=2", "Candidate=4"},
		func(cfg *pipeline.Config, i int) { cfg.Prophet.MVBCandidates = values[i] })
	return Result{
		ID:     "F16c",
		Title:  "Sensitivity: MVB candidates per entry (Figure 16c)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: Candidate=1 is the best trade-off; more candidates hurt bandwidth-sensitive astar"},
	}
}

// Figure17 re-runs the main comparison with an IPCP-style L1 prefetcher.
func Figure17(opts Options) Result {
	cfg := pipeline.Default()
	cfg.Sim.L1PF = sim.L1IPCP
	c := runComparison(cfg, opts, specWorkloads(opts))
	labels, series := withGeomean(c.Labels, c.series(func(r schemeRun) float64 { return r.Speedup }))
	return Result{
		ID:     "F17",
		Title:  "IPC speedup with an IPCP-style L1 prefetcher (Figure 17)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: ordering preserved under a stronger L1 prefetcher (paper: 1.2995 / 1.1751 / 1.0036)"},
	}
}

// Figure18 re-runs the main comparison with two DRAM channels.
func Figure18(opts Options) Result {
	cfg := pipeline.Default()
	cfg.Sim.DRAM.Channels = 2
	c := runComparison(cfg, opts, specWorkloads(opts))
	labels, series := withGeomean(c.Labels, c.series(func(r schemeRun) float64 { return r.Speedup }))
	return Result{
		ID:     "F18",
		Title:  "IPC speedup with doubled DRAM channels (Figure 18)",
		Labels: labels,
		Series: series,
		Notes:  []string{"shape target: ordering preserved with extra bandwidth (paper: 1.3227 / 1.1817 / 1.001)"},
	}
}

// Figure19 is the cumulative feature ablation: Triage4 + Triangel metadata,
// then +Repla, +Insert, +MVB, +Resize.
func Figure19(opts Options) Result {
	cfg := pipeline.Default()
	stages := []struct {
		name string
		f    core.Features
	}{
		{"Triage4+Meta", core.Features{}},
		{"+Repla", core.Features{Replacement: true}},
		{"+Insert", core.Features{Replacement: true, Insertion: true}},
		{"+MVB", core.Features{Replacement: true, Insertion: true, MVB: true}},
		{"+Resize", core.AllFeatures()},
	}
	set := specWorkloads(opts)
	workers := opts.workers()
	ev := pipeline.NewEvaluator(cfg, workers)
	speedups := make([]textplot.Series, len(stages))
	traffic := textplot.Table{Title: "(b) Normalized DRAM traffic", Columns: []string{"workload", "Triage4+Meta", "+Repla", "+Insert", "+MVB", "+Resize"}}
	for i := range stages {
		speedups[i].Name = stages[i].name
		speedups[i].Values = make([]float64, len(set))
	}
	labels := make([]string, len(set))
	rows := make([][]string, len(set))
	pipeline.ForEach(workers, len(set), func(wi int) {
		w := set[wi]
		base := ev.Baseline(w.Name, w.Factory)
		p := pipeline.NewProphet(cfg)
		p.ProfileAndLearn(w.Factory())
		row := []string{w.Name}
		for si, st := range stages {
			runStats := p.RunWithFeatures(st.f, w.Factory())
			speedups[si].Values[wi] = stats.Speedup(runStats.IPC(), base.IPC())
			row = append(row, textplot.F(stats.NormalizedTraffic(runStats.DRAMTraffic(), base.DRAMTraffic())))
		}
		rows[wi] = row
		labels[wi] = w.Name
	})
	for _, row := range rows {
		traffic.AddRow(row...)
	}
	labels, speedups = withGeomean(labels, speedups)
	return Result{
		ID:     "F19",
		Title:  "Prophet features breakdown (Figure 19)",
		Labels: labels,
		Series: speedups,
		Tables: []textplot.Table{traffic},
		Notes: []string{
			"shape target: cumulative gains; mcf benefits most from +Insert, soplex from +MVB, sphinx3 from +Resize",
		},
	}
}
