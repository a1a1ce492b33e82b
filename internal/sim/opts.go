package sim

import (
	"prophet/internal/cpu"
	"prophet/internal/mem"
	"prophet/internal/pmu"
	"prophet/internal/temporal"
)

// Opts shapes HOW a run executes, never WHAT it computes: Stats are
// bit-identical for every Opts value. internal/sim/difftest and the golden
// fixtures enforce that contract; because results are identical, Opts must
// never leak into result cache keys or store fingerprints.
type Opts struct {
	// BlockRecords is how many trace records the core consumes per block of
	// the hot loop. 0 selects mem.DefaultBlockRecords; negative selects the
	// record-at-a-time reference loop (the sequential baseline the
	// differential harness compares against).
	BlockRecords int
}

// normalized resolves defaults so equal-behaviour Opts compare equal (the
// scratch pool and the run loop both key off the normalized form).
func (o Opts) normalized() Opts {
	if o.BlockRecords == 0 {
		o.BlockRecords = mem.DefaultBlockRecords
	} else if o.BlockRecords < 0 {
		o.BlockRecords = -1
	}
	return o
}

// runKey keys the scratch pool. It includes the normalized Opts alongside
// the Config: scratch shape depends on both (the block buffer is sized to
// BlockRecords), so a pool entry prepared for one run shape must never be
// handed to a run with another.
type runKey struct {
	cfg  Config
	opts Opts
}

// RunOpts is Run with explicit execution shaping. Stats are bit-identical
// to Run for every opts value.
func RunOpts(cfg Config, opts Opts, engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver, src mem.Source) Stats {
	opts = opts.normalized()
	sc := getScratch(runKey{cfg: cfg, opts: opts}, engine, sw, counters, observer)

	var coreStats cpu.Stats
	if opts.BlockRecords > 0 {
		coreStats = sc.core.RunBlocks(src, sc.buf)
	} else {
		coreStats = sc.core.Run(src)
	}
	st := sc.sys.Stats(coreStats)
	if counters != nil && engine != nil {
		ts := engine.TableStats()
		counters.SetTableCounters(ts.Insertions, ts.Replacements)
	}
	putScratch(runKey{cfg: cfg, opts: opts}, sc)
	return st
}

// reset restores pooled scratch for reuse.
func (sc *scratch) reset(engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver) {
	s := sc.sys
	s.l1.Reset()
	s.l2.Reset()
	s.l3.Reset()
	s.dram.Reset()
	sc.core.Reset(s)
	s.l1pf.Reset()
	s.engine = engine
	s.sw = sw
	s.counters = counters
	s.observer = observer
	s.st = Stats{}
	s.syncMetaWays(0)
}
