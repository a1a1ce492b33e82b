package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"prophet/internal/cpu"
	"prophet/internal/mem"
	"prophet/internal/pmu"
	"prophet/internal/temporal"
)

// Opts shapes HOW a run executes — block granularity and intra-run
// parallelism — never WHAT it computes: Stats are bit-identical for every
// Opts value. internal/sim/difftest and the golden fixtures enforce that
// contract; because results are identical, Opts must never leak into result
// cache keys or store fingerprints.
type Opts struct {
	// BlockRecords is how many trace records the core consumes per block of
	// the hot loop. 0 selects mem.DefaultBlockRecords; negative selects the
	// record-at-a-time reference loop (the sequential baseline the
	// differential harness compares against).
	BlockRecords int

	// Parallelism bounds the intra-run worker set: trace decode-ahead for
	// streaming sources, sharded scratch reset, and the sharded metadata
	// analysis pass. 0 and 1 run fully synchronous. The effective value is
	// derated by the number of concurrently active runs in this process, so
	// a sweep fanning W runs over W cores does not oversubscribe the
	// machine (each run derates to ~GOMAXPROCS/active).
	Parallelism int
}

// normalized resolves defaults so equal-behaviour Opts compare equal (the
// scratch pool and the run loop both key off the normalized form).
func (o Opts) normalized() Opts {
	if o.BlockRecords == 0 {
		o.BlockRecords = mem.DefaultBlockRecords
	} else if o.BlockRecords < 0 {
		o.BlockRecords = -1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// activeRuns counts sim runs in flight across the whole process; it is the
// load signal for parallelism deration under concurrent sweep load.
var activeRuns atomic.Int64

// ActiveRuns reports the number of simulation runs currently executing in
// this process (exposed for load probes and tests).
func ActiveRuns() int64 { return activeRuns.Load() }

// IntraRunWorkers reports the derated worker budget a pass requesting par
// intra-run workers would receive right now, counting the caller itself as
// one active run. Non-simulation passes that shard metadata work (the
// pipeline's analysis step) size themselves with this.
func IntraRunWorkers(par int) int {
	return effectiveParallelism(par, activeRuns.Load()+1)
}

// effectiveParallelism derates the requested intra-run worker bound by the
// process-wide run load: each active run gets an equal share of GOMAXPROCS,
// never less than 1. Deration affects scheduling only — results are
// identical at every effective value.
func effectiveParallelism(requested int, active int64) int {
	if requested <= 1 {
		return 1
	}
	if active < 1 {
		active = 1
	}
	share := runtime.GOMAXPROCS(0) / int(active)
	if share < 1 {
		share = 1
	}
	if requested < share {
		return requested
	}
	return share
}

// runKey keys the scratch pool. It includes the normalized Opts alongside
// the Config: scratch shape depends on both (block buffer size, sharded
// reset discipline), so a pool entry prepared for one run shape must never
// be handed to a run with another.
type runKey struct {
	cfg  Config
	opts Opts
}

// RunOpts is Run with explicit execution shaping. Stats are bit-identical
// to Run for every opts value.
func RunOpts(cfg Config, opts Opts, engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver, src mem.Source) Stats {
	opts = opts.normalized()
	active := activeRuns.Add(1)
	defer activeRuns.Add(-1)
	par := effectiveParallelism(opts.Parallelism, active)

	sc := getScratch(runKey{cfg: cfg, opts: opts}, engine, sw, counters, observer, par)

	runSrc, pf := decodeAhead(src, opts, par)

	var coreStats cpu.Stats
	if opts.BlockRecords > 0 {
		coreStats = sc.core.RunBlocks(runSrc, sc.buf)
	} else {
		coreStats = sc.core.Run(runSrc)
	}
	if pf != nil {
		pf.Stop()
	}
	st := sc.sys.Stats(coreStats)
	if counters != nil && engine != nil {
		ts := engine.TableStats()
		counters.SetTableCounters(ts.Insertions, ts.Replacements)
	}
	putScratch(runKey{cfg: cfg, opts: opts}, sc)
	return st
}

// decodeAhead overlaps trace decode/generation with simulation for
// streaming sources, wrapping src in a mem.Prefetch pipeline the caller
// stops. In-memory traces are left alone: a slice needs no decoding, and a
// packed trace decodes in a small fraction of the time the core spends on
// each record, too little to pay for a goroutine and channel per pass.
func decodeAhead(src mem.Source, opts Opts, par int) (mem.Source, *mem.PrefetchSource) {
	if par <= 1 || opts.BlockRecords <= 0 {
		return src, nil
	}
	switch src.(type) {
	case *mem.SliceSource, *mem.PackedSource:
		return src, nil
	}
	pf := mem.Prefetch(src, opts.BlockRecords, par-1)
	return pf, pf
}

// reset restores pooled scratch for reuse. With par > 1 the large disjoint
// state regions — the three cache tag arrays, DRAM state, and the core's
// dependence ring — are cleared by a bounded worker set; the WaitGroup
// barrier is the deterministic merge point (no run state is observable
// until every shard has finished, so a sharded reset is indistinguishable
// from a sequential one).
func (sc *scratch) reset(engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver, par int) {
	s := sc.sys
	shards := []func(){
		s.l1.Reset,
		s.l2.Reset,
		s.l3.Reset,
		func() { s.dram.Reset(); sc.core.Reset(s) },
	}
	if par > 1 {
		workers := par
		if workers > len(shards) {
			workers = len(shards)
		}
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(shards) {
						return
					}
					shards[i]()
				}
			}()
		}
		wg.Wait()
	} else {
		for _, f := range shards {
			f()
		}
	}
	s.l1pf = s.cfg.newL1Prefetcher()
	s.engine = engine
	s.sw = sw
	s.counters = counters
	s.observer = observer
	s.st = Stats{}
	s.syncMetaWays(0)
}
