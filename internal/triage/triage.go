// Package triage implements the Triage on-chip temporal prefetcher (Wu et
// al., MICRO'19 / IEEE TC'21), the first scheme to move temporal metadata
// into a Markov table sharing LLC space. Relative to later designs it has
// no insertion filter — every trainable access allocates metadata — which is
// exactly the inefficiency the Prophet paper contrasts against (Section
// 2.1.1). Resizing uses a Bloom-filter-style distinct-entry estimator
// (Section 2.1.3); replacement is SRRIP by default, with the original
// paper's Hawkeye-style predictor available via Config.Hawkeye (Section
// 2.1.2 cites ~13KB of state for a <0.25% gain — a trade-off reproducible
// here).
package triage

import (
	"slices"

	"prophet/internal/mem"
	"prophet/internal/recycle"
	"prophet/internal/temporal"
)

// Config parameterizes Triage.
type Config struct {
	// Degree is the Markov chain-walk prefetch degree (1 in the original
	// paper; 4 in the "Triage4" configuration of Figure 19).
	Degree int
	// Ways is the initial metadata-table allocation in LLC ways.
	Ways int
	// Table is the metadata table geometry.
	Table temporal.TableConfig
	// Hawkeye selects the original paper's Hawkeye-style metadata
	// replacement instead of SRRIP (Section 2.1.2: ~13KB for ~0.25%).
	Hawkeye bool
	// BloomResize enables the distinct-entry resizing estimator.
	BloomResize bool
	// ResizeEpoch is the number of trainable accesses between resizing
	// decisions.
	ResizeEpoch uint64
}

// Default returns the standard Triage configuration (degree 1, 1MB table).
func Default() Config {
	tc := temporal.DefaultTableConfig()
	tc.Policy = temporal.MetaSRRIP
	return Config{Degree: 1, Ways: tc.MaxWays, Table: tc, BloomResize: true, ResizeEpoch: 100_000}
}

// Prefetcher is the Triage engine.
type Prefetcher struct {
	cfg     Config
	table   *temporal.Table
	comp    *temporal.Compressor
	train   *temporal.TrainingUnit
	scratch []mem.Line // prediction buffer reused across OnAccess calls

	// Bloom-filter stand-in: distinct sources inserted this epoch. The
	// hardware uses a counting Bloom filter of ~200KB (Section 2.1.3);
	// functionally it estimates the distinct-entry count, which we track
	// exactly and account for in internal/storage.
	epochSources temporal.IndexSet
	epochAccess  uint64

	rc recycle.Slot
}

// engines recycles Released prefetchers, so a run reuses the last run's
// training unit and epoch set instead of allocating them.
var engines = recycle.New(func() *Prefetcher {
	return &Prefetcher{train: temporal.NewTrainingUnit(1024)}
}, func(p *Prefetcher) *recycle.Slot { return &p.rc })

// New builds a Triage prefetcher, reusing a Released one's storage when
// available. A reused prefetcher is observably fresh: its training unit
// and epoch set are emptied and every counter restarts from zero.
func New(cfg Config) *Prefetcher {
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	if cfg.Hawkeye {
		cfg.Table.Policy = temporal.MetaHawkeye
	}
	p := engines.Get()
	p.train.Reset()
	p.epochSources.Clear()
	*p = Prefetcher{
		cfg:          cfg,
		table:        temporal.NewTable(cfg.Table, cfg.Ways),
		comp:         temporal.NewCompressor(),
		train:        p.train,
		scratch:      slices.Grow(p.scratch[:0], cfg.Degree),
		epochSources: p.epochSources,
	}
	return p
}

// Name implements temporal.Engine.
func (p *Prefetcher) Name() string {
	if p.cfg.Degree > 1 {
		return "triage4"
	}
	return "triage"
}

// OnAccess implements temporal.Engine.
func (p *Prefetcher) OnAccess(ev temporal.AccessEvent) []mem.Line {
	if !ev.Trainable() {
		return nil
	}
	cur := p.comp.Index(ev.Line)
	// Training: link the PC's previous miss to this one. Triage has no
	// insertion policy — everything is recorded.
	if ev.PC != 0 {
		if prev, ok := p.train.Observe(ev.PC, ev.Line); ok && prev != ev.Line {
			src := p.comp.Index(prev)
			p.table.Insert(src, cur, 0)
			if p.cfg.BloomResize {
				p.epochSources.Add(src)
			}
		}
	}
	p.maybeResize()
	// Prediction: walk the Markov chain from the current address.
	p.scratch = temporal.AppendChase(p.scratch[:0], p.table, p.comp, cur, p.cfg.Degree)
	return p.scratch
}

func (p *Prefetcher) maybeResize() {
	if !p.cfg.BloomResize {
		return
	}
	p.epochAccess++
	if p.epochAccess < p.cfg.ResizeEpoch {
		return
	}
	p.epochAccess = 0
	distinct := p.epochSources.Len()
	p.epochSources.Clear() // keep the set's capacity for the next epoch
	perWay := p.cfg.Table.EntriesPerWayTotal()
	ways := (distinct + perWay - 1) / perWay
	if ways < 1 {
		ways = 1
	}
	if ways > p.cfg.Table.MaxWays {
		ways = p.cfg.Table.MaxWays
	}
	p.table.Resize(ways, nil)
}

// PrefetchUseful implements temporal.Engine (Triage takes no feedback).
func (p *Prefetcher) PrefetchUseful(mem.Addr, mem.Line) {}

// PrefetchUseless implements temporal.Engine.
func (p *Prefetcher) PrefetchUseless(mem.Addr, mem.Line) {}

// MetaWays implements temporal.Engine.
func (p *Prefetcher) MetaWays() int { return p.table.Ways() }

// TableStats implements temporal.Engine.
func (p *Prefetcher) TableStats() temporal.TableStats { return p.table.Stats() }

// Table exposes the metadata table for tests and histogram extraction.
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

var _ temporal.Engine = (*Prefetcher)(nil)
