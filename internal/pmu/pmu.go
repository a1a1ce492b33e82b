// Package pmu models the performance-monitoring facilities Prophet's
// profiling step relies on (Section 4.1): PEBS-style per-PC event counters
// and standard global PMU counters.
//
// The three per-PC events are
//
//   - MEM_LOAD_RETIRED.L2_Prefetch_Issue — prefetches issued on behalf of a
//     PC,
//   - MEM_LOAD_RETIRED.L2_Prefetch_Useful — prefetches later hit by demand,
//   - MEM_LOAD_RETIRED.L2_MISS — used to rank PCs by miss contribution for
//     the 128-entry hint buffer.
//
// The two global counters are metadata-table insertions and replacements;
// their difference is the allocated-entry count Equation 3 resizes with.
//
// PEBS samples rather than counts every event; SamplePeriod reproduces that
// (period 1 = exact counting, the default in the simulator just as the
// paper collects counters "using facilities within gem5"). The profiling
// payload is a few bytes per touched PC — the counters-vs-traces contrast of
// Figure 2 — which OverheadBytes quantifies for the Section 5.4 experiment.
package pmu

import "prophet/internal/mem"

// PCCounters holds the per-PC PEBS event counts.
type PCCounters struct {
	Issued   uint64 // L2_Prefetch_Issue
	Useful   uint64 // L2_Prefetch_Useful
	L2Misses uint64 // L2_MISS
}

// Accuracy returns Useful/Issued (Section 4.1), or -1 when the PC issued no
// prefetches (distinguishing "never issued" from "always wrong").
func (c PCCounters) Accuracy() float64 {
	if c.Issued == 0 {
		return -1
	}
	return float64(c.Useful) / float64(c.Issued)
}

// Counters is one profiling run's collected state.
type Counters struct {
	// PC maps instruction addresses to their event counts.
	PC map[mem.Addr]*PCCounters
	// Insertions and Replacements are the global metadata-table counters.
	Insertions   uint64
	Replacements uint64

	period uint64 // PEBS sampling period (1 = exact)
	tick   uint64
}

// NewCounters returns an empty counter set with the given PEBS sampling
// period (values < 1 mean exact counting).
func NewCounters(samplePeriod uint64) *Counters {
	if samplePeriod < 1 {
		samplePeriod = 1
	}
	return &Counters{PC: make(map[mem.Addr]*PCCounters), period: samplePeriod}
}

func (c *Counters) sampled() bool {
	c.tick++
	return c.tick%c.period == 0
}

func (c *Counters) pc(pc mem.Addr) *PCCounters {
	e, ok := c.PC[pc]
	if !ok {
		e = &PCCounters{}
		c.PC[pc] = e
	}
	return e
}

// RecordIssue counts a prefetch issued for trigger PC.
func (c *Counters) RecordIssue(pc mem.Addr) {
	if pc == 0 || !c.sampled() {
		return
	}
	c.pc(pc).Issued += c.period
}

// RecordUseful counts a demand hit on a prefetched line.
func (c *Counters) RecordUseful(pc mem.Addr) {
	if pc == 0 || !c.sampled() {
		return
	}
	c.pc(pc).Useful += c.period
}

// RecordL2Miss counts an L2 demand miss for pc.
func (c *Counters) RecordL2Miss(pc mem.Addr) {
	if pc == 0 || !c.sampled() {
		return
	}
	c.pc(pc).L2Misses += c.period
}

// SetTableCounters stores the global metadata-table counters.
func (c *Counters) SetTableCounters(insertions, replacements uint64) {
	c.Insertions = insertions
	c.Replacements = replacements
}

// AllocatedEntries is Insertions - Replacements (Section 4.1).
func (c *Counters) AllocatedEntries() uint64 {
	if c.Replacements >= c.Insertions {
		return 0
	}
	return c.Insertions - c.Replacements
}

// Accuracy returns the prefetching accuracy of a PC (-1 if it never issued).
func (c *Counters) Accuracy(pc mem.Addr) float64 {
	if e, ok := c.PC[pc]; ok {
		return e.Accuracy()
	}
	return -1
}

// OverheadBytes estimates the profiling payload size: three 8-byte counters
// per touched PC plus the two global counters. This is the "Counter ~B"
// side of Figure 2's counters-vs-traces comparison.
func (c *Counters) OverheadBytes() int {
	return len(c.PC)*(3*8+8) + 2*8
}

// Clone deep-copies the counters.
func (c *Counters) Clone() *Counters {
	out := NewCounters(c.period)
	out.Insertions = c.Insertions
	out.Replacements = c.Replacements
	for pc, e := range c.PC {
		cp := *e
		out.PC[pc] = &cp
	}
	return out
}
