package sim

import (
	"errors"
	"fmt"
	"sync"

	"prophet/internal/cache"
	"prophet/internal/cpu"
	"prophet/internal/dram"
	"prophet/internal/mem"
	"prophet/internal/pmu"
	"prophet/internal/prefetch"
	"prophet/internal/temporal"
)

// SWPrefetcher is the hook for software prefetching schemes (RPG2): it sees
// every demand access at issue and returns lines to prefetch into the L2,
// mirroring software prefetch instructions placed next to the load. The
// returned slice may alias a scratch buffer owned by the prefetcher; it is
// valid only until the next OnDemand call.
type SWPrefetcher interface {
	OnDemand(pc mem.Addr, line mem.Line) []mem.Line
}

// DemandObserver receives every demand access with its L1/L2 hit outcome.
// RPG2's profiling pass and ad-hoc experiment probes hook in here.
type DemandObserver interface {
	OnDemandAccess(pc mem.Addr, line mem.Line, l1Hit, l2Hit bool)
}

// Stats aggregates one run's outcome.
type Stats struct {
	Core cpu.Stats
	L1   cache.Stats
	L2   cache.Stats
	L3   cache.Stats
	DRAM dram.Stats

	// L2 demand-side accounting (coverage metrics).
	L2DemandAccesses uint64
	L2DemandMisses   uint64

	// Temporal-prefetcher outcome accounting.
	TPIssued  uint64 // prefetches issued into the L2
	TPUseful  uint64 // prefetched lines hit by demand
	TPUseless uint64 // prefetched lines evicted untouched

	// Other prefetch traffic.
	SWIssued   uint64 // software (RPG2) prefetches issued
	L1PFIssued uint64 // L1 prefetcher fills

	// Metadata table state at end of run.
	MetaWays   int
	TableStats temporal.TableStats
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 { return s.Core.IPC() }

// DRAMTraffic returns total DRAM line transfers (Figure 11's metric).
func (s Stats) DRAMTraffic() uint64 { return s.DRAM.Traffic() }

// TPAccuracy returns useful/issued for the temporal prefetcher (Figure 12b).
func (s Stats) TPAccuracy() float64 {
	if s.TPIssued == 0 {
		return 0
	}
	return float64(s.TPUseful) / float64(s.TPIssued)
}

// Validate reports every counter invariant s breaks, joined, or nil when
// it breaks none. The invariants hold for every correct run whatever its
// execution shape, so a violation flags a broken simulator even where two
// runs agree:
//   - a prefetch is judged useful or useless only after it is issued;
//   - a demand miss is also a demand access, and a table hit also a table
//     lookup;
//   - every DRAM read is an L3 miss and every DRAM write an L3 writeback,
//     which pins the miss accounting and the dirty bit end to end;
//   - a cache level writes back only lines it filled.
func (s Stats) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(s.TPUseful+s.TPUseless <= s.TPIssued, "TPUseful+TPUseless %d+%d > TPIssued %d", s.TPUseful, s.TPUseless, s.TPIssued)
	check(s.L2DemandMisses <= s.L2DemandAccesses, "L2DemandMisses %d > L2DemandAccesses %d", s.L2DemandMisses, s.L2DemandAccesses)
	check(s.TableStats.Hits <= s.TableStats.Lookups, "TableStats.Hits %d > TableStats.Lookups %d", s.TableStats.Hits, s.TableStats.Lookups)
	check(s.DRAM.Reads == s.L3.Misses, "DRAM.Reads %d != L3.Misses %d", s.DRAM.Reads, s.L3.Misses)
	check(s.DRAM.Writes == s.L3.Writebacks, "DRAM.Writes %d != L3.Writebacks %d", s.DRAM.Writes, s.L3.Writebacks)
	for _, lv := range []struct {
		name string
		st   cache.Stats
	}{{"L1", s.L1}, {"L2", s.L2}, {"L3", s.L3}} {
		check(lv.st.Writebacks <= lv.st.Fills, "%s.Writebacks %d > %s.Fills %d", lv.name, lv.st.Writebacks, lv.name, lv.st.Fills)
	}
	return errors.Join(errs...)
}

// System is the assembled machine. It implements cpu.Memory.
type System struct {
	cfg  Config
	l1   *cache.Cache
	l2   *cache.Cache
	l3   *cache.Cache
	dram *dram.DRAM
	l1pf prefetch.L1Prefetcher

	engine   temporal.Engine
	sw       SWPrefetcher
	counters *pmu.Counters
	observer DemandObserver

	st Stats
}

// New assembles a system. engine, sw, counters and observer may each be nil.
func New(cfg Config, engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver) *System {
	s := &System{
		cfg:      cfg,
		l1:       cache.New(cfg.L1),
		l2:       cache.New(cfg.L2),
		l3:       cache.New(cfg.L3),
		dram:     dram.New(cfg.DRAM),
		l1pf:     cfg.newL1Prefetcher(),
		engine:   engine,
		sw:       sw,
		counters: counters,
		observer: observer,
	}
	s.syncMetaWays(0)
	return s
}

// syncMetaWays keeps the demand-visible LLC in step with the metadata table.
func (s *System) syncMetaWays(now uint64) {
	metaWays := 0
	if s.engine != nil {
		metaWays = s.engine.MetaWays()
	}
	want := s.cfg.L3.Ways - metaWays
	if want < 0 {
		want = 0
	}
	if s.l3.DemandWays() == want {
		return
	}
	s.l3.SetDemandWays(want, func(ev cache.Eviction) {
		if ev.Dirty() {
			s.dram.Write(ev.Line(), now)
		}
	})
}

// Access implements cpu.Memory for demand accesses.
func (s *System) Access(a mem.Access, now uint64) (ready uint64, l1Miss bool) {
	line := a.Line()
	write := a.Kind == mem.Store

	// Software prefetch instructions execute alongside the load.
	if s.sw != nil {
		for _, pl := range s.sw.OnDemand(a.PC, line) {
			s.st.SWIssued++
			s.prefetchIntoL2(pl, a.PC, now)
		}
	}

	// Fused L1 scan: the demand access also records the fill slot. The slot
	// survives unless an L1 prefetch fills the set in the meantime, which
	// l1Prefetch reports.
	res, slot := s.l1.AccessFill(line, now, write)
	l1Touched := false

	// Train the L1 prefetcher on the demand stream.
	for _, pl := range s.l1pf.OnAccess(a.PC, line, res.Hit) {
		if s.l1Prefetch(pl, a.PC, now) {
			l1Touched = true
		}
	}

	if res.Hit {
		if s.observer != nil {
			s.observer.OnDemandAccess(a.PC, line, true, false)
		}
		r := now + s.cfg.L1.HitLatency
		if res.Ready > r {
			r = res.Ready
		}
		return r, false
	}

	// L1 miss: walk the hierarchy.
	fillReady, l2Hit := s.demandFromL2(a.PC, line, now+s.cfg.L1.HitLatency)
	if s.observer != nil {
		s.observer.OnDemandAccess(a.PC, line, false, l2Hit)
	}
	// Fill L1; dirty victims write back into the L2. The fused slot applies
	// unless an L1 prefetch touched the cache since the access scan.
	var ev cache.Eviction
	if l1Touched {
		ev = s.l1.Insert(line, now, fillReady, write, false, 0)
	} else {
		ev = s.l1.Fill(slot, line, fillReady, write, false, 0)
	}
	if ev.Dirty() {
		s.writebackToL2(ev.Line(), now)
	}
	return fillReady, true
}

// demandFromL2 services a demand L2 access, returning the data-ready cycle.
func (s *System) demandFromL2(pc mem.Addr, line mem.Line, t uint64) (ready uint64, hit bool) {
	s.st.L2DemandAccesses++
	// Fused L2 scan: the demand access also records the fill slot. Between
	// it and the fill only engine prefetches can touch the L2, so the slot
	// stays valid exactly when the engine issued none.
	res, slot := s.l2.AccessFill(line, t, false)
	l2Touched := false

	// Prefetch-outcome feedback: first demand touch of a prefetched line.
	if res.WasPrefetch {
		s.st.TPUseful++
		if s.engine != nil {
			s.engine.PrefetchUseful(res.Trigger, line)
		}
		if s.counters != nil {
			s.counters.RecordUseful(res.Trigger)
		}
	}

	// The temporal prefetcher observes the demand L2 access stream.
	if s.engine != nil {
		targets := s.engine.OnAccess(temporal.AccessEvent{
			PC: pc, Line: line,
			Hit: res.Hit, HitPrefetched: res.WasPrefetch,
			Cycle: t,
		})
		for _, tl := range targets {
			l2Touched = true
			s.prefetchIntoL2(tl, pc, t)
		}
		s.syncMetaWays(t)
	}

	if res.Hit {
		r := t + s.cfg.L2.HitLatency
		if res.Ready > r {
			r = res.Ready
		}
		return r, true
	}

	s.st.L2DemandMisses++
	if s.counters != nil {
		s.counters.RecordL2Miss(pc)
	}
	fillReady := s.fetchFromL3(line, t+s.cfg.L2.HitLatency)
	if l2Touched {
		s.fillL2(line, t, fillReady, false, false, 0)
	} else {
		s.fillL2Slot(slot, line, t, fillReady, false, 0)
	}
	return fillReady, false
}

// fetchFromL3 reads a line from the L3 or DRAM, filling the L3 on a miss.
// The access and the miss fill share one tag scan (cache.AccessFill): the
// LLC is the only level where nothing can touch the cache between the miss
// and its fill, so the fused path is bit-identical to Access+Insert.
func (s *System) fetchFromL3(line mem.Line, t uint64) (ready uint64) {
	res, slot := s.l3.AccessFill(line, t, false)
	if res.Hit {
		r := t + s.cfg.L3.HitLatency
		if res.Ready > r {
			r = res.Ready
		}
		return r
	}
	done := s.dram.Read(line, t+s.cfg.L3.HitLatency)
	if ev := s.l3.Fill(slot, line, done, false, false, 0); ev.Dirty() {
		s.dram.Write(ev.Line(), t)
	}
	return done
}

// fillL2 inserts a line into the L2, handling victim writeback and
// prefetch-usefulness accounting for displaced prefetched lines.
func (s *System) fillL2(line mem.Line, now, ready uint64, dirty, isPrefetch bool, trigger mem.Addr) {
	s.l2Evicted(s.l2.Insert(line, now, ready, dirty, isPrefetch, trigger), now)
}

// fillL2Slot is fillL2 completing a miss recorded by an earlier fused L2
// scan (AccessFill/LookupFill), skipping the second tag scan.
func (s *System) fillL2Slot(slot cache.FillSlot, line mem.Line, now, ready uint64, isPrefetch bool, trigger mem.Addr) {
	s.l2Evicted(s.l2.Fill(slot, line, ready, false, isPrefetch, trigger), now)
}

// l2Evicted handles an L2 victim, if any: writeback and
// prefetch-usefulness accounting for displaced prefetched lines.
func (s *System) l2Evicted(ev cache.Eviction, now uint64) {
	if ev.Prefetch() {
		s.st.TPUseless++
		if s.engine != nil {
			s.engine.PrefetchUseless(ev.Trigger(), ev.Line())
		}
	}
	if ev.Dirty() {
		s.writebackToL3(ev.Line(), now)
	}
}

// writebackToL2 handles a dirty L1 eviction. MarkDirtyFill fuses the hit
// check, the dirty-marking access, and the miss-path fill scan into one tag
// pass; nothing touches the L2 between the scan and the fill.
func (s *System) writebackToL2(line mem.Line, now uint64) {
	handled, slot := s.l2.MarkDirtyFill(line, now)
	if handled {
		return
	}
	s.l2Evicted(s.l2.Fill(slot, line, now, true, false, 0), now)
}

// writebackToL3 handles a dirty L2 eviction.
func (s *System) writebackToL3(line mem.Line, now uint64) {
	handled, slot := s.l3.MarkDirtyFill(line, now)
	if handled {
		return
	}
	if ev := s.l3.Fill(slot, line, now, true, false, 0); ev.Dirty() {
		s.dram.Write(ev.Line(), now)
	}
}

// prefetchIntoL2 issues a temporal or software prefetch. Prefetches do not
// stall the core; their fills arrive asynchronously at the computed cycle.
func (s *System) prefetchIntoL2(line mem.Line, trigger mem.Addr, now uint64) {
	// One fused scan covers the presence probe and the fill: between them
	// only the L3/DRAM are touched, so the slot stays valid.
	_, hit, slot := s.l2.LookupFill(line)
	if hit {
		return
	}
	s.st.TPIssued++
	if s.counters != nil {
		s.counters.RecordIssue(trigger)
	}
	ready := s.fetchFromL3(line, now)
	s.fillL2Slot(slot, line, now, ready, true, trigger)
}

// l1Prefetch issues an L1 prefetcher fill, pulling the line through the
// hierarchy without core involvement. The L2 access it causes feeds the
// temporal prefetcher's training stream (Section 5.1). It reports whether
// it modified the L1 (callers holding a fused L1 fill slot must rescan).
func (s *System) l1Prefetch(line mem.Line, trigger mem.Addr, now uint64) bool {
	if _, hit := s.l1.Lookup(line); hit {
		return false
	}
	s.st.L1PFIssued++
	// Fused L2 scan: on a miss, only fetchFromL3 runs before the fill, so
	// the slot from the access scan stays valid.
	res, slot := s.l2.AccessFill(line, now, false)
	if res.WasPrefetch {
		// An L1 prefetch touching a TP-prefetched L2 line counts as
		// useful: the data was needed earlier in the hierarchy.
		s.st.TPUseful++
		if s.engine != nil {
			s.engine.PrefetchUseful(res.Trigger, line)
		}
		if s.counters != nil {
			s.counters.RecordUseful(res.Trigger)
		}
	}
	var ready uint64
	if res.Hit {
		ready = now + s.cfg.L2.HitLatency
		if res.Ready > ready {
			ready = res.Ready
		}
	} else {
		ready = s.fetchFromL3(line, now+s.cfg.L2.HitLatency)
		s.fillL2Slot(slot, line, now, ready, false, 0)
	}
	// The temporal prefetcher trains on L1-prefetch L2 traffic too.
	if s.engine != nil {
		targets := s.engine.OnAccess(temporal.AccessEvent{
			PC: trigger, Line: line,
			Hit: res.Hit, HitPrefetched: res.WasPrefetch,
			FromL1Prefetch: true, Cycle: now,
		})
		for _, tl := range targets {
			s.prefetchIntoL2(tl, trigger, now)
		}
		s.syncMetaWays(now)
	}
	if ev := s.l1.Insert(line, now, ready, false, true, trigger); ev.Dirty() {
		s.writebackToL2(ev.Line(), now)
	}
	return true
}

// Stats snapshots the run counters (call after the core finishes).
func (s *System) Stats(coreStats cpu.Stats) Stats {
	st := s.st
	st.Core = coreStats
	st.L1 = s.l1.Stats()
	st.L2 = s.l2.Stats()
	st.L3 = s.l3.Stats()
	st.DRAM = s.dram.Stats()
	if s.engine != nil {
		st.MetaWays = s.engine.MetaWays()
		st.TableStats = s.engine.TableStats()
	}
	return st
}

// scratch bundles the large per-run structures Run recycles: the cache
// hierarchy's tag arrays (megabytes per system), the core's dependence
// ring, and the record-block buffer. Pooling them removes the dominant
// per-run allocations from sweeps — an Evaluator fanning hundreds of short
// simulations over a worker pool constructs each system once per worker
// instead of once per run.
type scratch struct {
	sys  *System
	core *cpu.Core
	buf  []mem.Access // block buffer, sized to the run's BlockRecords
}

// scratchPools maps a runKey — Config plus normalized run Opts — to its
// *sync.Pool of scratch systems. Pools are per-configuration because a
// System's geometry is fixed at construction, and per-Opts because the
// block buffer is sized to the run's BlockRecords: an entry prepared for
// one block shape must never serve another. A typed map behind an RWMutex
// (rather than a sync.Map) keeps the per-run lookup allocation-free:
// interface conversion of the large runKey struct would box it on every
// Run.
var (
	scratchMu    sync.RWMutex
	scratchPools = map[runKey]*sync.Pool{}
)

func poolFor(key runKey) *sync.Pool {
	scratchMu.RLock()
	p := scratchPools[key]
	scratchMu.RUnlock()
	if p != nil {
		return p
	}
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if p = scratchPools[key]; p == nil {
		p = &sync.Pool{}
		scratchPools[key] = p
	}
	return p
}

func getScratch(key runKey, engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver) *scratch {
	if v := poolFor(key).Get(); v != nil {
		sc := v.(*scratch)
		sc.reset(engine, sw, counters, observer)
		return sc
	}
	sys := New(key.cfg, engine, sw, counters, observer)
	sc := &scratch{sys: sys, core: cpu.New(key.cfg.Core, sys)}
	if key.opts.BlockRecords > 0 {
		sc.buf = make([]mem.Access, key.opts.BlockRecords)
	}
	return sc
}

func putScratch(key runKey, sc *scratch) {
	// Drop the run's attachments so the pool does not pin engine metadata
	// (tables, compressors) beyond the run's lifetime.
	sc.sys.engine = nil
	sc.sys.sw = nil
	sc.sys.counters = nil
	sc.sys.observer = nil
	poolFor(key).Put(sc)
}

// Run executes a full trace on a fresh core and returns the statistics. If
// counters were attached, the metadata-table counters are published to them.
// The system and core scratch state come from a per-configuration pool.
// Run uses default Opts (block-batched); RunOpts picks the block size.
func Run(cfg Config, engine temporal.Engine, sw SWPrefetcher, counters *pmu.Counters, observer DemandObserver, src mem.Source) Stats {
	return RunOpts(cfg, Opts{}, engine, sw, counters, observer, src)
}
