package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"prophet"
	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/workloads"
)

// sessionInputs is how many gcc inputs session-gcc profiles, and then how
// many other inputs it runs the optimized binary on.
const sessionInputs = 4

// sessionBench is session-gcc: one prophet.Session profiles four gcc inputs,
// optimizes, and runs the binary on four held-out inputs (the paper's
// cross-input generalization, Figures 13/14). The seed picks the split.
type sessionBench struct {
	ev             *prophet.Evaluator
	train, heldout []string
}

// The split depends on the seed only: every repeat of a run must compute
// the same results.
func newSessionBench(seed, _ uint64) (bench, error) {
	names := workloads.GCCInputNames()
	if len(names) < 2*sessionInputs {
		return nil, fmt.Errorf("need %d gcc inputs, catalog has %d", 2*sessionInputs, len(names))
	}
	for i, n := range names {
		names[i] = "gcc_" + n
	}
	rng := rand.New(rand.NewPCG(seed, 0x6cc))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return &sessionBench{
		ev:      prophet.New(),
		train:   names[:sessionInputs],
		heldout: names[sessionInputs : 2*sessionInputs],
	}, nil
}

func (b *sessionBench) close() {}

// layers adds nothing beyond the staged run: the component replays run on
// the streams sweep-temporal captures.
func (b *sessionBench) layers(*tracer, *childResult) {}

func (b *sessionBench) run(tr *tracer, res *childResult) {
	var rows []row
	var hints int
	if tr == nil {
		rows, hints = b.runSession(res)
	} else {
		rows, hints = b.runStaged(tr, res)
	}
	var sp []float64
	for _, r := range rows {
		checkRow(r, res)
		sp = append(sp, r.Stats.Speedup)
	}
	res.Values["heldout_speedup"] = geomean(sp)
	res.Values["hints"] = float64(hints)
	// The binary's hint count is part of what must repeat exactly.
	rows = append(rows, row{Workload: "binary", Scheme: "prophet", Meta: map[string]int{"hints": hints}})
	res.Digest = digest(rows)
}

// runSession drives the public Session API and reports time_to_binary_s:
// profiling, learning and analysis over the training inputs.
func (b *sessionBench) runSession(res *childResult) ([]row, int) {
	s := b.ev.NewSession()
	t0 := time.Now()
	for _, name := range b.train {
		res.Attempted++
		if err := s.Profile(prophet.Workload{Name: name}); err != nil {
			res.fail("profile %s: %v", name, err)
		}
	}
	bin := s.Optimize()
	res.Values["time_to_binary_s"] = time.Since(t0).Seconds()
	var rows []row
	for _, name := range b.heldout {
		st, err := s.Run(context.Background(), bin, prophet.Workload{Name: name})
		if err != nil {
			res.Attempted++
			res.fail("run %s: %v", name, err)
			continue
		}
		rows = append(rows, row{Workload: name, Scheme: string(prophet.Prophet), Stats: st})
	}
	return rows, bin.PCHints
}

// runStaged is the same session stage by stage. Like Session, it generates
// every pass's trace afresh: four profile passes, then a baseline and an
// optimized pass per held-out input.
func (b *sessionBench) runStaged(tr *tracer, res *childResult) ([]row, int) {
	cfg := pipeline.Default()
	agg := newLayerAgg()
	gen := func(name string) mem.Source {
		w, _ := workloads.Get(name)
		id := tr.begin("workloads.gen", 0)
		recs := mem.Materialize(w.Source(0))
		tr.end(id)
		return mem.NewSliceSource(recs)
	}
	p := pipeline.NewProphet(cfg)
	t0 := time.Now()
	for _, name := range b.train {
		src := gen(name)
		id := tr.begin("pipeline.profile", 0)
		c := p.Profile(src)
		tr.end(id)
		id = tr.begin("learning.learn", 0)
		p.Learn(c)
		tr.end(id)
	}
	id := tr.begin("analysis.analyze", 0)
	a := p.Analyze()
	tr.end(id)
	res.Values["time_to_binary_s"] = time.Since(t0).Seconds()
	var rows []row
	for _, name := range b.heldout {
		src := gen(name)
		id := tr.begin("pipeline.baseline", 0)
		base := pipeline.RunBaseline(cfg.Sim, src)
		agg.add(string(prophet.Baseline), tr.end(id), base, summarize(base, base), nil)
		st, d, te := optimizedRun(tr, 0, cfg, p.Engine(core.AllFeatures()), gen(name))
		rs := summarize(st, base)
		agg.add(string(prophet.Prophet), d, st, rs, te)
		rows = append(rows, row{Workload: name, Scheme: string(prophet.Prophet), Stats: rs})
	}
	agg.addHints(len(a.Hints.PC))
	agg.report(res)
	return rows, len(a.Hints.PC)
}
