package core

import (
	"slices"

	"prophet/internal/mem"
	"prophet/internal/recycle"
	"prophet/internal/temporal"
)

// Features selects which Prophet mechanisms are active. The Figure 19
// ablation enables them cumulatively over the "Triage4 + Triangel metadata"
// baseline: +Repla, +Insert, +MVB, +Resize.
type Features struct {
	// Replacement activates the profile-guided replacement policy
	// (priority levels from Equation 2 + runtime policy among candidates).
	Replacement bool
	// Insertion activates the profile-guided insertion filter (Equation 1).
	Insertion bool
	// MVB activates the Multi-path Victim Buffer.
	MVB bool
	// Resizing applies the CSR's profile-guided way allocation
	// (Equation 3) instead of the fixed maximum table.
	Resizing bool
}

// AllFeatures returns the full Prophet configuration.
func AllFeatures() Features {
	return Features{Replacement: true, Insertion: true, MVB: true, Resizing: true}
}

// Config parameterizes the Prophet engine.
type Config struct {
	// Degree is the chained prefetch degree (4, matching the Triage4
	// ablation baseline and Triangel's aggressiveness).
	Degree int
	// Table is the metadata-table geometry; the policy field is chosen by
	// the engine from Features.Replacement.
	Table temporal.TableConfig
	// Features gates Prophet's mechanisms.
	Features Features
	// MVBEntries sizes the victim buffer (DefaultMVBEntries).
	MVBEntries int
	// MVBAssoc is the victim-buffer set associativity.
	MVBAssoc int
	// MVBCandidates is the alternate-target budget per lookup (Fig 16c).
	MVBCandidates int
	// DefaultPriority is the replacement priority for PCs without an
	// installed hint.
	DefaultPriority uint8
	// HintBufferEntries caps the hint buffer (128).
	HintBufferEntries int
}

// DefaultConfig returns the paper's evaluated Prophet configuration.
func DefaultConfig() Config {
	return Config{
		Degree:            4,
		Table:             temporal.DefaultTableConfig(),
		Features:          AllFeatures(),
		MVBEntries:        DefaultMVBEntries,
		MVBAssoc:          4,
		MVBCandidates:     1,
		DefaultPriority:   1,
		HintBufferEntries: HintBufferEntries,
	}
}

// Simplified returns the Step 1 profiling configuration (Section 3.2) at
// c's geometry: insertion policy disabled, fixed metadata table at its
// maximum size, prefetch degree 1 — "an unbiased evaluation of memory
// instructions under temporal prefetching".
func (c Config) Simplified() Config {
	c.Degree = 1
	c.Features = Features{} // pure runtime: no filtering, no MVB, fixed table
	return c
}

// Prophet is the temporal prefetcher with profile-guided metadata
// management. Construct with New, passing the hint set extracted from the
// optimized binary (possibly empty for the simplified profiling mode).
type Prophet struct {
	cfg   Config
	csr   CSR
	hints *HintBuffer
	table *temporal.Table
	comp  *temporal.Compressor
	train *temporal.TrainingUnit
	reuse *temporal.ReuseBuffer
	mvb   *VictimBuffer // &victims when Features.MVB, else nil

	// victims is the Multi-path Victim Buffer's storage, which the engine
	// owns and keeps across recycling whether or not the feature is on.
	victims VictimBuffer

	scratch []mem.Line // prediction buffer reused across OnAccess calls
	altBuf  []uint32   // MVB lookup buffer, likewise recycled

	rc recycle.Slot
}

// engines recycles Released engines, so a run reuses the last run's hint
// buffer, training unit, reuse buffer and victim buffer (512 KiB at the
// default size) instead of allocating them.
var engines = recycle.New(func() *Prophet {
	return &Prophet{
		hints: NewHintBuffer(HintBufferEntries),
		train: temporal.NewTrainingUnit(1024),
		reuse: temporal.NewReuseBuffer(128),
	}
}, func(p *Prophet) *recycle.Slot { return &p.rc })

// New builds a Prophet engine from its configuration and the binary's hint
// set, reusing a Released engine's storage when available. hintWeight
// carries each PC's miss contribution for hint-buffer prioritization (may
// be nil when hints fit the buffer). A reused engine is observably fresh:
// its hint buffer, training unit, reuse buffer and victim buffer are
// emptied and every counter restarts from zero.
func New(cfg Config, hints HintSet, hintWeight map[mem.Addr]uint64) *Prophet {
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	tableCfg := cfg.Table
	if cfg.Features.Replacement {
		tableCfg.Policy = temporal.ProphetPriority
	} else {
		tableCfg.Policy = temporal.MetaSRRIP
	}
	ways := tableCfg.MaxWays
	csr := CSR{ProphetEnabled: true, MetaWays: ways}
	if cfg.Features.Resizing {
		csr.MetaWays = hints.MetaWays
		csr.TPDisabled = hints.DisableTP
		ways = hints.MetaWays
		if ways > tableCfg.MaxWays {
			ways = tableCfg.MaxWays
		}
		if hints.DisableTP {
			ways = 0
		}
	}
	p := engines.Get()
	p.hints.setCap(cfg.HintBufferEntries)
	p.train.Reset()
	p.reuse.Reset()
	*p = Prophet{
		cfg:     cfg,
		csr:     csr,
		hints:   p.hints,
		table:   temporal.NewTable(tableCfg, ways),
		comp:    temporal.NewCompressor(),
		train:   p.train,
		reuse:   p.reuse,
		victims: p.victims,
		scratch: slices.Grow(p.scratch[:0], 2*cfg.Degree),
		altBuf:  slices.Grow(p.altBuf[:0], cfg.MVBCandidates+1),
	}
	if cfg.Features.MVB {
		p.victims.reset(cfg.MVBEntries, cfg.MVBAssoc, cfg.MVBCandidates)
		p.mvb = &p.victims
	}
	p.hints.Install(hints.PC, hintWeight)
	return p
}

// Name implements temporal.Engine.
func (p *Prophet) Name() string { return "prophet" }

// CSR returns the engine's control/status register contents.
func (p *Prophet) CSR() CSR { return p.csr }

// OnAccess implements temporal.Engine.
func (p *Prophet) OnAccess(ev temporal.AccessEvent) []mem.Line {
	if p.csr.TPDisabled || p.table.Ways() == 0 {
		return nil
	}
	if !ev.Trainable() {
		return nil
	}

	priority := p.cfg.DefaultPriority
	if ev.PC != 0 {
		if h, ok := p.hints.Lookup(ev.PC); ok {
			if p.cfg.Features.Insertion && !h.Insert {
				// Equation 1: discard all demand requests from
				// PCs with no temporal pattern — no training,
				// no metadata insertion, no prefetch.
				return nil
			}
			priority = h.Priority
		}
	}

	cur := p.comp.Index(ev.Line)
	if ev.PC != 0 {
		if prev, ok := p.train.Observe(ev.PC, ev.Line); ok && prev != ev.Line {
			src := p.comp.Index(prev)
			if !p.cfg.Features.Replacement {
				priority = 0
			}
			if ev := p.table.Insert(src, cur, priority); ev.Valid {
				// Section 4.5 insertion rule: only priority > 0
				// targets enter the victim buffer.
				if p.mvb != nil && ev.Priority > 0 {
					p.mvb.Insert(ev.Src, ev.Target)
				}
			}
		}
	}

	return p.predict(cur, priority)
}

// mvbPrefetchMinPriority is the fine-grained management rule keeping the
// Multi-path Victim Buffer's bandwidth cost low (Section 5.9 credits MVB's
// +1.95% traffic to "fine-grained management"): alternate-path prefetches
// fire only for triggers whose profiled accuracy sits in the upper priority
// bands, where a second Markov target is likely real rather than noise.
const mvbPrefetchMinPriority = 2

// predict walks the Markov chain and augments each step with Multi-path
// Victim Buffer alternates. The returned slice aliases the engine's scratch
// buffer and is valid until the next prediction.
func (p *Prophet) predict(src uint32, priority uint8) []mem.Line {
	out := p.scratch[:0]
	cur := src
	for i := 0; i < p.cfg.Degree; i++ {
		target, ok := p.reuse.Lookup(cur)
		if !ok {
			target, ok = p.table.Lookup(cur)
			if ok {
				p.reuse.Insert(cur, target)
			}
		}
		var primary uint32
		hasPrimary := ok
		if ok {
			primary = target
			if line, ok2 := p.comp.Line(target); ok2 {
				out = append(out, line)
			}
		}
		// MVB: same lookup key, fetch alternate successors (Section
		// 4.5 "Prefetch" rule). The MVB is searched even when the
		// table missed — the path may live only in the buffer.
		if p.mvb != nil && priority >= mvbPrefetchMinPriority {
			// The table's lossy (set, tag) key, so MVB lookups
			// match eviction-time keys.
			key := p.table.Config().SrcKey(cur)
			exclude := uint32(0xFFFFFFFF)
			if hasPrimary {
				exclude = primary
			}
			p.altBuf = p.mvb.AppendLookup(p.altBuf[:0], key, exclude)
			for _, alt := range p.altBuf {
				if line, ok2 := p.comp.Line(alt); ok2 {
					out = append(out, line)
				}
			}
		}
		if !hasPrimary {
			break
		}
		cur = primary
	}
	p.scratch = out
	return out
}

// PrefetchUseful implements temporal.Engine. Prophet's policies are profile-
// driven, so runtime feedback only refreshes the reuse buffer.
func (p *Prophet) PrefetchUseful(mem.Addr, mem.Line) {}

// PrefetchUseless implements temporal.Engine.
func (p *Prophet) PrefetchUseless(mem.Addr, mem.Line) {}

// MetaWays implements temporal.Engine.
func (p *Prophet) MetaWays() int { return p.table.Ways() }

// TableStats implements temporal.Engine.
func (p *Prophet) TableStats() temporal.TableStats { return p.table.Stats() }

// Table exposes the metadata table for measurement tooling.
func (p *Prophet) Table() *temporal.Table { return p.table }

// Release returns the metadata table and the address compressor to their
// shared pools and the engine, with its victim buffer, to its own, so the
// next engine built reuses all of their storage. The engine (and anything
// obtained through Table or MVB) must not be used after, nor released
// again: the next New may hand it to another run.
func (p *Prophet) Release() {
	p.table.Release()
	p.comp.Release()
	p.table, p.comp, p.mvb = nil, nil, nil
	engines.Put(p)
}

// MVB exposes the victim buffer (nil when the feature is off).
func (p *Prophet) MVB() *VictimBuffer { return p.mvb }

var _ temporal.Engine = (*Prophet)(nil)
