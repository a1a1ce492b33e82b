package main

import (
	"time"

	"prophet/internal/cache"
	"prophet/internal/core"
	"prophet/internal/dram"
	"prophet/internal/pipeline"
	"prophet/internal/temporal"
)

// replayPasses is how many times each component replay runs; the reported
// time per operation is the median pass.
const replayPasses = 5

// layers replays the L2 access streams the traced sweep captured (the
// triage cell of every workload) through single components, timing cache
// access, DRAM read, metadata-table lookup and insert, and the MVB. Each
// pass is a span, so the replays land in the trace next to the stages.
func (b *sweepBench) layers(tr *tracer, res *childResult) {
	var events []temporal.AccessEvent
	for _, c := range b.captured {
		events = append(events, c...)
	}
	b.captured = nil
	if len(events) == 0 {
		res.Attempted++
		res.fail("traced sweep captured no L2 accesses")
		return
	}
	cfg := pipeline.Default()

	// The training stream as the engines see it: compressed line indices
	// of the trainable accesses.
	comp := temporal.NewCompressor()
	var idx []uint32
	for _, ev := range events {
		if ev.Trainable() {
			idx = append(idx, comp.Index(ev.Line))
		}
	}

	var misses []temporal.AccessEvent
	res.Layers["cache.access_ns"] = replay(tr, "micro.cache.access", len(events), func() {
		c := cache.New(cfg.Sim.L2)
		misses = misses[:0]
		for _, ev := range events {
			if !c.Access(ev.Line, ev.Cycle, false).Hit {
				c.Insert(ev.Line, ev.Cycle, ev.Cycle, false, false, 0)
				misses = append(misses, ev)
			}
		}
	})
	res.Layers["dram.read_ns"] = replay(tr, "micro.dram.read", len(misses), func() {
		d := dram.New(cfg.Sim.DRAM)
		for _, ev := range misses {
			d.Read(ev.Line, ev.Cycle)
		}
	})

	tcfg := temporal.DefaultTableConfig()
	table := temporal.NewTable(tcfg, tcfg.MaxWays)
	res.Layers["temporal.table_insert_ns"] = replay(tr, "micro.table.insert", len(idx)-1, func() {
		for i := 1; i < len(idx); i++ {
			table.Insert(idx[i-1], idx[i], 1)
		}
	})
	res.Layers["temporal.table_lookup_ns"] = replay(tr, "micro.table.lookup", len(idx), func() {
		for _, x := range idx {
			table.Lookup(x)
		}
	})
	table.Release()

	pcfg := core.DefaultConfig()
	var dst []uint32
	res.Layers["core.mvb_ns"] = replay(tr, "micro.mvb", len(idx)-1, func() {
		vb := core.NewVictimBuffer(pcfg.MVBEntries, pcfg.MVBAssoc, pcfg.MVBCandidates)
		for i := 1; i < len(idx); i++ {
			vb.Insert(idx[i-1], idx[i])
			dst = vb.AppendLookup(dst[:0], idx[i], ^uint32(0))
		}
	})
}

// replay runs fn replayPasses times, each under a span, and returns the
// median nanoseconds per operation for ops operations a pass.
func replay(tr *tracer, name string, ops int, fn func()) float64 {
	if ops <= 0 {
		return 0
	}
	per := make([]float64, replayPasses)
	for i := range per {
		id := tr.begin(name, 0)
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		tr.end(id)
	}
	return median(per)
}
