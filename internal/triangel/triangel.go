// Package triangel implements the Triangel temporal prefetcher (Ainsworth &
// Mukhanov, ISCA'24), the state-of-the-art hardware baseline of the Prophet
// paper. Triangel extends Triage with
//
//   - an insertion filter driven by two 4-bit confidence counters per memory
//     instruction: PatternConf (do this PC's accesses repeat their successor
//     relationships?) and ReuseConf (do its lines recur within the metadata
//     table's reach?). Training and insertion are rejected when the counters
//     fall below threshold — the short-term behaviour Figure 1 of the
//     Prophet paper shows mis-firing on interleaved useful/useless patterns;
//   - SRRIP replacement for the metadata table (replacing Triage's Hawkeye);
//   - Set-Dueller resizing: sampled shadow utility monitors for both the
//     demand LLC and the metadata table decide the way partition each epoch;
//   - aggressive chained prefetching (degree 4), which Triangel's own
//     ablation credits with most of its speedup.
//
// PatternConf is trained by a history sampler: a bounded FIFO of sampled
// (address -> successor) pairs. When a sampled address recurs, the observed
// successor is compared against the recorded one (+1 match, -1 mismatch).
// Prefetch outcome feedback (useful +1 / evicted-unused -1) adds the "blue
// dot / red dot" signal of Figure 1. ReuseConf is trained by a reuse
// sampler: sampled lines that recur within the table's entry capacity raise
// it, samples that expire unreferenced lower it.
//
// # Audit against the Triangel paper
//
// The paper's text (arXiv 2406.10627) is not in this repository, so every
// paper value below is recalled, not checked, and marked so; "not
// recalled" means no value is claimed. "Seed" means the value has been in
// the code since the repository's first commit with no recorded source.
//
//	mechanism              paper (recalled)              here                     source
//	PatternConf            4-bit, per PC                 4-bit, threshold 8       seed
//	ReuseConf              4-bit, per PC                 4-bit, threshold 6       seed
//	training entries       not recalled                  1024 (TrainingEntries)   seed
//	history sampler        not recalled                  2048, 1/64 of lines      seed
//	reuse sampler          not recalled                  4096, 1/64 of lines      seed
//	metadata replacement   SRRIP                         2-bit SRRIP              seed
//	Set-Dueller            sampled sets, about 2 KB      32 of 2048 sets, 16-way  seed
//	                                                     LLC and full-depth table
//	                                                     stacks, decay 0.5
//	MetaHitWeight          no weight recalled            0.8                      fitted to reproduce
//	                                                                              conservative ways on
//	                                                                              omnetpp and mcf
//	prefetch degree        up to 4, chained              4 at PatternConf >= 8,   seed
//	                                                     else 1
//	starting ways          not recalled                  MaxWays (8, 1 MB),       seed, shared with
//	                                                     as Triage                Triage
//
// Mechanisms the paper describes, as recalled, that this package does not
// model:
//
//   - the Second-Chance Sampler, which gives a sampled entry that just
//     missed the reuse window a second look before ReuseConf falls;
//   - the Metadata Reuse Buffer, which caches recently used metadata in
//     front of the LLC table (Prophet's engine has one, temporal.ReuseBuffer);
//   - the lookahead and the BasePatternConf/HighPatternConf split that set
//     the prefetch degree and distance; here one threshold switches between
//     degree 1 and the full chain.
//
// Adding any of them, or changing a value above, changes results and
// belongs in a reviewed model-change step.
package triangel

import (
	"slices"

	"prophet/internal/mem"
	"prophet/internal/recycle"
	"prophet/internal/temporal"
)

// Config parameterizes Triangel.
type Config struct {
	// Degree is the Markov chain-walk prefetch degree (4: "aggressive").
	Degree int
	// Ways is the initial metadata allocation in LLC ways.
	Ways int
	// Table is the metadata-table geometry.
	Table temporal.TableConfig
	// PatternThreshold gates insertion on PatternConf (0..15 counter).
	PatternThreshold int8
	// ReuseThreshold gates insertion on ReuseConf (0..15 counter).
	ReuseThreshold int8
	// SetDueller enables utility-monitor resizing.
	SetDueller bool
	// ResizeEpoch is the number of trainable accesses between resizes.
	ResizeEpoch uint64
	// MetaHitWeight scales metadata utility against LLC hit utility when
	// the Set Dueller partitions ways. Weights below 1 reproduce
	// Triangel's conservative allocations on omnetpp/mcf.
	MetaHitWeight float64
}

// Default returns the configuration used throughout the evaluation.
func Default() Config {
	tc := temporal.DefaultTableConfig()
	tc.Policy = temporal.MetaSRRIP
	return Config{
		Degree:           4,
		Ways:             tc.MaxWays,
		Table:            tc,
		PatternThreshold: 8,
		ReuseThreshold:   6,
		SetDueller:       true,
		ResizeEpoch:      100_000,
		MetaHitWeight:    0.8,
	}
}

// TrainingEntries is the per-PC state's size: the training unit's
// entries, and as many slots of PatternConf and ReuseConf. A power of two,
// because both are direct-mapped by PC.
const TrainingEntries = 1024

const (
	confMax  = 15 // 4-bit counters
	confInit = 8

	patternSamplerCap = 2048
	reuseSamplerCap   = 4096
)

// pcState is the per-memory-instruction training state.
type pcState struct {
	pc          mem.Addr
	valid       bool
	patternConf int8
	reuseConf   int8
}

type patternSample struct {
	line     mem.Line
	expected mem.Line
	pc       mem.Addr
	valid    bool
}

type reuseSample struct {
	line  mem.Line
	pc    mem.Addr
	tick  uint64
	valid bool
}

// Prefetcher is the Triangel engine.
type Prefetcher struct {
	cfg     Config
	table   *temporal.Table
	comp    *temporal.Compressor
	train   *temporal.TrainingUnit
	pcs     []pcState  // direct-mapped by PC, like the training unit
	scratch []mem.Line // prediction buffer reused across OnAccess calls

	// History sampler (PatternConf). The index maps line -> ring slot
	// through an open-addressed probe map: sampler checks run on every
	// trainable access, so the lookup must not cost a Go-map operation.
	patRing  []patternSample
	patHead  int
	patIndex *temporal.LineIndex

	// Reuse sampler (ReuseConf).
	reuseRing  []reuseSample
	reuseHead  int
	reuseTail  int
	reuseCount int
	reuseIndex *temporal.LineIndex
	accessTick uint64

	// dueller is the Set-Dueller's storage, kept whether or not
	// cfg.SetDueller runs it.
	dueller *dueller

	rc recycle.Slot
}

// engines recycles Released prefetchers, so a run reuses the last run's
// training unit, PC table, sampler rings and indexes and Set-Dueller
// instead of allocating them (about 380 KB a run).
var engines = recycle.New(func() *Prefetcher {
	return &Prefetcher{
		train:      temporal.NewTrainingUnit(TrainingEntries),
		pcs:        make([]pcState, TrainingEntries),
		patRing:    make([]patternSample, patternSamplerCap),
		patIndex:   temporal.NewLineIndex(patternSamplerCap),
		reuseRing:  make([]reuseSample, reuseSamplerCap),
		reuseIndex: temporal.NewLineIndex(reuseSamplerCap),
		dueller:    &dueller{},
	}
}, func(p *Prefetcher) *recycle.Slot { return &p.rc })

// New builds a Triangel prefetcher, reusing a Released one's storage when
// available. A reused prefetcher is observably fresh: every PC, sample and
// Set-Dueller stack is forgotten and every counter restarts from zero.
func New(cfg Config) *Prefetcher {
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	p := engines.Get()
	p.train.Reset()
	clear(p.pcs)
	clear(p.patRing)
	p.patIndex.Clear()
	clear(p.reuseRing)
	p.reuseIndex.Clear()
	if cfg.SetDueller {
		p.dueller.reset(cfg.Table, cfg.MetaHitWeight)
	}
	*p = Prefetcher{
		cfg:        cfg,
		table:      temporal.NewTable(cfg.Table, cfg.Ways),
		comp:       temporal.NewCompressor(),
		train:      p.train,
		pcs:        p.pcs,
		scratch:    slices.Grow(p.scratch[:0], cfg.Degree),
		patRing:    p.patRing,
		patIndex:   p.patIndex,
		reuseRing:  p.reuseRing,
		reuseIndex: p.reuseIndex,
		dueller:    p.dueller,
	}
	return p
}

// Name implements temporal.Engine.
func (p *Prefetcher) Name() string { return "triangel" }

func (p *Prefetcher) pcSlot(pc mem.Addr) *pcState {
	x := uint64(pc) >> 2
	x ^= x >> 9
	st := &p.pcs[x&uint64(len(p.pcs)-1)]
	if !st.valid || st.pc != pc {
		*st = pcState{pc: pc, valid: true, patternConf: confInit, reuseConf: confInit}
	}
	return st
}

// sampleHash picks the deterministic sampling subsets.
func sampleHash(l mem.Line) uint64 {
	x := uint64(l)
	x ^= x >> 13
	x *= 0x9e3779b97f4a7c15
	return x >> 32
}

// OnAccess implements temporal.Engine.
func (p *Prefetcher) OnAccess(ev temporal.AccessEvent) []mem.Line {
	if !ev.Trainable() {
		return nil
	}
	p.accessTick++
	cur := p.comp.Index(ev.Line)

	if p.cfg.SetDueller {
		p.dueller.observeLLC(ev.Line)
	}
	p.expireReuseSamples()

	if ev.PC != 0 {
		st := p.pcSlot(ev.PC)
		p.observeReuse(ev.PC, ev.Line, st)
		if prev, ok := p.train.Observe(ev.PC, ev.Line); ok && prev != ev.Line {
			p.checkPatternSample(prev, ev.Line)
			p.maybeAddPatternSample(ev.PC, prev, ev.Line)
			// Insertion filter (Section 2.1.1): both confidence
			// counters must clear their thresholds.
			if st.patternConf >= p.cfg.PatternThreshold && st.reuseConf >= p.cfg.ReuseThreshold {
				src := p.comp.Index(prev)
				p.table.Insert(src, cur, 0)
				if p.cfg.SetDueller {
					p.dueller.observeMeta(src)
				}
			}
		}
	}

	p.maybeResize()
	// Aggressiveness control: the chained degree-4 walk is only worth its
	// bandwidth when the triggering instruction's pattern confidence is
	// high; low-confidence triggers fall back to degree 1.
	degree := p.cfg.Degree
	if ev.PC != 0 && p.pcSlot(ev.PC).patternConf < p.cfg.PatternThreshold {
		degree = 1
	}
	p.scratch = temporal.AppendChase(p.scratch[:0], p.table, p.comp, cur, degree)
	return p.scratch
}

// checkPatternSample confirms or refutes a recorded (prev -> ?) sample.
func (p *Prefetcher) checkPatternSample(prev, cur mem.Line) {
	slot, ok := p.patIndex.Get(prev)
	if !ok {
		return
	}
	s := p.patRing[slot]
	if !s.valid || s.line != prev {
		p.patIndex.Del(prev)
		return
	}
	st := p.pcSlot(s.pc)
	if s.expected == cur {
		if st.patternConf < confMax {
			st.patternConf++
		}
	} else if st.patternConf > 0 {
		st.patternConf--
	}
	p.patIndex.Del(prev)
	p.patRing[slot] = patternSample{}
}

// maybeAddPatternSample records (prev -> cur) for a sampled subset of
// addresses. The ring overwrites oldest samples; an overwritten sample was
// simply never re-observed within the window and carries no penalty (the
// reuse sampler provides that signal).
func (p *Prefetcher) maybeAddPatternSample(pc mem.Addr, prev, cur mem.Line) {
	if sampleHash(prev)&63 != 0 { // sample 1/64 of addresses
		return
	}
	if _, ok := p.patIndex.Get(prev); ok {
		return
	}
	old := p.patRing[p.patHead]
	if old.valid {
		p.patIndex.Del(old.line)
	}
	p.patRing[p.patHead] = patternSample{line: prev, expected: cur, pc: pc, valid: true}
	p.patIndex.Set(prev, p.patHead)
	p.patHead = (p.patHead + 1) % len(p.patRing)
}

// observeReuse feeds the reuse sampler: a sampled line recurring within the
// table's entry capacity is evidence the PC's pattern fits the table.
func (p *Prefetcher) observeReuse(pc mem.Addr, line mem.Line, st *pcState) {
	window := uint64(p.table.Config().MaxEntries())
	if slot, ok := p.reuseIndex.Get(line); ok {
		s := p.reuseRing[slot]
		if s.valid && s.line == line {
			if p.accessTick-s.tick <= window {
				if st.reuseConf < confMax {
					st.reuseConf++
				}
			} else if st.reuseConf > 0 {
				st.reuseConf--
			}
			p.reuseIndex.Del(line)
			p.reuseRing[slot] = reuseSample{}
		}
	}
	if sampleHash(line)>>6&63 != 0 { // sample 1/64 of lines
		return
	}
	if _, ok := p.reuseIndex.Get(line); ok {
		return
	}
	if p.reuseCount >= len(p.reuseRing) {
		// Capacity overflow carries no penalty: the sample simply fell
		// out of the monitoring window. Only expiry (the line provably
		// failed to recur within table reach) lowers ReuseConf.
		p.dropOldestReuse(false)
	}
	p.reuseRing[p.reuseTail] = reuseSample{line: line, pc: pc, tick: p.accessTick, valid: true}
	p.reuseIndex.Set(line, p.reuseTail)
	p.reuseTail = (p.reuseTail + 1) % len(p.reuseRing)
	p.reuseCount++
}

// expireReuseSamples retires samples older than the table window, lowering
// the sampling PC's ReuseConf: the line did not recur within reach.
func (p *Prefetcher) expireReuseSamples() {
	window := uint64(p.table.Config().MaxEntries())
	for p.reuseCount > 0 {
		s := p.reuseRing[p.reuseHead]
		if !s.valid { // hole left by a confirmed sample
			p.reuseHead = (p.reuseHead + 1) % len(p.reuseRing)
			p.reuseCount--
			continue
		}
		if p.accessTick-s.tick <= window {
			return
		}
		p.dropOldestReuse(true)
	}
}

// dropOldestReuse pops the head sample; penalize lowers its PC's ReuseConf.
func (p *Prefetcher) dropOldestReuse(penalize bool) {
	s := p.reuseRing[p.reuseHead]
	if s.valid {
		p.reuseIndex.Del(s.line)
		if penalize {
			st := p.pcSlot(s.pc)
			if st.reuseConf > 0 {
				st.reuseConf--
			}
		}
	}
	p.reuseRing[p.reuseHead] = reuseSample{}
	p.reuseHead = (p.reuseHead + 1) % len(p.reuseRing)
	p.reuseCount--
}

// PrefetchUseful implements temporal.Engine: a useful prefetch raises the
// trigger PC's PatternConf (a blue dot in Figure 1).
func (p *Prefetcher) PrefetchUseful(trigger mem.Addr, _ mem.Line) {
	if trigger == 0 {
		return
	}
	st := p.pcSlot(trigger)
	if st.patternConf < confMax {
		st.patternConf++
	}
}

// PrefetchUseless implements temporal.Engine: an evicted-unused prefetch
// lowers the trigger PC's PatternConf (a red dot in Figure 1).
func (p *Prefetcher) PrefetchUseless(trigger mem.Addr, _ mem.Line) {
	if trigger == 0 {
		return
	}
	st := p.pcSlot(trigger)
	if st.patternConf > 0 {
		st.patternConf--
	}
}

func (p *Prefetcher) maybeResize() {
	if !p.cfg.SetDueller {
		return
	}
	if p.accessTick%p.cfg.ResizeEpoch != 0 {
		return
	}
	ways := p.dueller.choose(p.table.Ways())
	if ways != p.table.Ways() {
		p.table.Resize(ways, nil)
	}
}

// MetaWays implements temporal.Engine.
func (p *Prefetcher) MetaWays() int { return p.table.Ways() }

// TableStats implements temporal.Engine.
func (p *Prefetcher) TableStats() temporal.TableStats { return p.table.Stats() }

// Table exposes the metadata table for tests.
func (p *Prefetcher) Table() *temporal.Table { return p.table }

// Release returns the metadata table and the address compressor to their
// shared pools and the prefetcher to its own, so the next engine built
// reuses all of their storage. The prefetcher (and anything obtained
// through Table) must not be used after, nor released again: the next New
// may hand it to another run.
func (p *Prefetcher) Release() {
	p.table.Release()
	p.comp.Release()
	p.table, p.comp = nil, nil
	engines.Put(p)
}

// PatternConf exposes a PC's confidence counter for tests and Figure 1.
func (p *Prefetcher) PatternConf(pc mem.Addr) int8 { return p.pcSlot(pc).patternConf }

var _ temporal.Engine = (*Prefetcher)(nil)
