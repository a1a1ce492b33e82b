package main

import (
	"context"
	"math/rand/v2"
	"time"

	"prophet"
	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/temporal"
	"prophet/internal/triage"
	"prophet/internal/triangel"
	"prophet/internal/workloads"
)

// sweepWorkloads are the five workloads of sweep-temporal, each covering a
// distinct Prophet feature: mcf overflows the metadata table (insertion
// filter), omnetpp is pollution-sensitive, soplex is multi-path (MVB),
// sphinx3 has a compact working set (resize hint) and xalancbmk is where
// hints add little over Triangel.
var sweepWorkloads = []string{"mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"}

var sweepSchemes = []prophet.Scheme{prophet.Baseline, prophet.Triage, prophet.Triangel, prophet.Prophet}

// captureEvents bounds the L2 events captured per workload for the
// component replays.
const captureEvents = 100_000

// sweepBench is sweep-temporal: an in-process Evaluator.Sweep of every
// workload under every scheme at catalog-default lengths.
type sweepBench struct {
	ev   *prophet.Evaluator
	jobs []prophet.Job
	// captured holds the traced run's L2 access streams for the replays.
	captured [][]temporal.AccessEvent
}

// sweepJobs returns the sweep's jobs in a request order picked by the seed
// and the repeat.
func sweepJobs(seed, repeat uint64) ([]prophet.Job, error) {
	ws := make([]prophet.Workload, len(sweepWorkloads))
	for i, name := range sweepWorkloads {
		w, err := prophet.Find(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	jobs := prophet.Jobs(ws, sweepSchemes...)
	rng := rand.New(rand.NewPCG(seed, repeat))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

func newSweepBench(seed, repeat uint64) (bench, error) {
	jobs, err := sweepJobs(seed, repeat)
	if err != nil {
		return nil, err
	}
	return &sweepBench{ev: prophet.New(prophet.WithWorkers(workers)), jobs: jobs}, nil
}

func (b *sweepBench) close() {}

func (b *sweepBench) run(tr *tracer, res *childResult) {
	var rows []row
	if tr == nil {
		rows = sweepRows(b.ev, b.jobs, res)
		hits, misses := b.ev.BaselineCacheStats()
		res.Values["baseline_hits"] = float64(hits)
		res.Values["baseline_misses"] = float64(misses)
	} else {
		rows = b.runStaged(tr, res)
	}
	for _, r := range rows {
		checkRow(r, res)
	}
	speedups(rows, res)
	res.Digest = digest(rows)
}

// sweepRows runs the jobs through Evaluator.Sweep and returns their rows;
// error rows count as failures.
func sweepRows(ev *prophet.Evaluator, jobs []prophet.Job, res *childResult) []row {
	results, err := ev.Sweep(context.Background(), jobs...)
	if err != nil {
		res.Attempted++
		res.fail("sweep: %v", err)
		return nil
	}
	rows := make([]row, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			res.Attempted++
			res.fail("%s/%s: %v", r.Job.Workload.Name, r.Job.Scheme, r.Err)
			continue
		}
		rows = append(rows, row{Workload: r.Job.Workload.Name, Scheme: string(r.Job.Scheme), Stats: r.Stats, Meta: r.Meta})
	}
	return rows
}

// speedups reports each temporal scheme's IPC geomean over the baseline and
// Prophet's ratio over Triangel.
func speedups(rows []row, res *childResult) {
	by := map[string][]float64{}
	for _, r := range rows {
		by[r.Scheme] = append(by[r.Scheme], r.Stats.Speedup)
	}
	for _, s := range []prophet.Scheme{prophet.Triage, prophet.Triangel, prophet.Prophet} {
		res.Values["speedup_"+string(s)] = geomean(by[string(s)])
	}
	pvt := res.Values["speedup_prophet"] / res.Values["speedup_triangel"]
	res.Values["prophet_vs_triangel"] = pvt
	res.Attempted++
	if !(pvt > 1) {
		res.fail("prophet_vs_triangel %.4f is not above 1", pvt)
	}
}

// runStaged drives the same cells stage by stage through the public stage
// functions, with a span around each call. Each workload's trace is
// generated once and its baseline shared, as the Evaluator does.
func (b *sweepBench) runStaged(tr *tracer, res *childResult) []row {
	cfg := pipeline.Default()
	agg := newLayerAgg()
	rows := make([][]row, len(sweepWorkloads))
	b.captured = make([][]temporal.AccessEvent, len(sweepWorkloads))
	pipeline.ForEach(workers, len(sweepWorkloads), func(i int) {
		name := sweepWorkloads[i]
		w, _ := workloads.Get(name)
		id := tr.begin("workloads.gen", 0)
		recs := mem.Materialize(w.Source(0))
		tr.end(id)
		src := func() mem.Source { return mem.NewSliceSource(recs) }

		job := tr.begin("prophet.job", 0)
		id = tr.begin("pipeline.baseline", job)
		base := pipeline.RunBaseline(cfg.Sim, src())
		agg.add(string(prophet.Baseline), tr.end(id), base, summarize(base, base), nil)
		tr.end(job)
		rows[i] = append(rows[i], row{Workload: name, Scheme: string(prophet.Baseline), Stats: summarize(base, base)})

		// pipeline.RunTriage and RunTriangel build their engine inside, so
		// these cells call sim.RunOpts as they do, with the engine wrapped
		// to time OnAccess.
		for _, s := range []struct {
			scheme prophet.Scheme
			eng    func() temporal.Engine
		}{
			{prophet.Triage, func() temporal.Engine { return triage.New(triage.Default()) }},
			{prophet.Triangel, func() temporal.Engine { return triangel.New(triangel.Default()) }},
		} {
			job := tr.begin("prophet.job", 0)
			inner := s.eng()
			te := &timedEngine{Engine: inner}
			if s.scheme == prophet.Triage {
				te.captureN = captureEvents
			}
			id := tr.begin("pipeline."+string(s.scheme), job)
			st := sim.RunOpts(cfg.Sim, cfg.Run, te, nil, nil, nil, src())
			d := tr.end(id)
			inner.(interface{ Release() }).Release()
			rs := summarize(st, base)
			agg.add(string(s.scheme), d, st, rs, te)
			tr.end(job)
			rows[i] = append(rows[i], row{Workload: name, Scheme: string(s.scheme), Stats: rs})
			if te.capture != nil {
				b.captured[i] = te.capture
			}
		}

		job = tr.begin("prophet.job", 0)
		st, meta, d, te := stagedProphet(tr, job, cfg, src)
		rs := summarize(st, base)
		agg.add(string(prophet.Prophet), d, st, rs, te)
		agg.addHints(meta["hints"])
		tr.end(job)
		rows[i] = append(rows[i], row{Workload: name, Scheme: string(prophet.Prophet), Stats: rs, Meta: meta})
	})
	agg.report(res)
	var out []row
	for _, rs := range rows {
		out = append(out, rs...)
	}
	return out
}

// stagedProphet is the single-input Figure 5 flow of the prophet scheme —
// profile, learn, analyze, run — one span per stage under parent. It returns
// the optimized run's stats, the scheme metadata, and the run's time and
// timed engine.
func stagedProphet(tr *tracer, parent int, cfg pipeline.Config, src func() mem.Source) (sim.Stats, map[string]int, time.Duration, *timedEngine) {
	p := pipeline.NewProphet(cfg)
	id := tr.begin("pipeline.profile", parent)
	c := p.Profile(src())
	tr.end(id)
	id = tr.begin("learning.learn", parent)
	p.Learn(c)
	tr.end(id)
	id = tr.begin("analysis.analyze", parent)
	a := p.Analyze()
	tr.end(id)
	meta := map[string]int{"hints": len(a.Hints.PC), "metaWays": a.Hints.MetaWays}
	if a.Hints.DisableTP {
		meta["disableTP"] = 1
	}
	st, d, te := optimizedRun(tr, parent, cfg, p.Engine(core.AllFeatures()), src())
	return st, meta, d, te
}

// optimizedRun simulates one Prophet engine under a timing wrapper.
func optimizedRun(tr *tracer, parent int, cfg pipeline.Config, eng *core.Prophet, src mem.Source) (sim.Stats, time.Duration, *timedEngine) {
	te := &timedEngine{Engine: eng}
	id := tr.begin("pipeline.optimized_run", parent)
	st := sim.RunOpts(cfg.Sim, cfg.Run, te, nil, nil, nil, src)
	d := tr.end(id)
	eng.Release()
	return st, d, te
}
