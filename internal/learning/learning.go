// Package learning implements Step 3 of the Prophet pipeline (Section 4.3):
// merging counters collected under different program inputs so one optimized
// binary adapts to all of them.
//
// The merge rules are the paper's equations:
//
//   - Equation 4, per-PC metrics (accuracy, miss weight):
//     Merged = o + (n - o) / min(l+1, L)  when the PC was seen before,
//     Merged = n                          when the PC is new,
//     where l counts completed learning loops and L is a designer parameter.
//     New inputs nudge existing estimates toward their observations (Load E
//     of Figure 7), first observations are adopted wholesale (Loads B/C),
//     and agreeing observations are fixed points (Load A).
//
//   - Equation 5, the allocated-entry count: Merged = max(o, n) — a
//     conservative table size accommodating every input seen.
package learning

import (
	"prophet/internal/mem"
	"prophet/internal/pmu"
)

// DefaultL is the designer parameter L bounding how slowly old knowledge
// yields to new observations.
const DefaultL = 4

// PCProfile is the merged per-PC state.
type PCProfile struct {
	// Accuracy is the merged prefetching accuracy in [0,1], or -1 if the
	// PC never issued a prefetch under any input.
	Accuracy float64
	// MissWeight is the merged L2 miss contribution (hint-buffer rank).
	MissWeight float64
}

// Profile is the persistent learning state carried across inputs.
type Profile struct {
	// L is the Equation 4 designer parameter.
	L int
	// Loops counts completed Analysis steps (l in Equation 4).
	Loops int
	// PCs holds the merged per-PC profile.
	PCs map[mem.Addr]PCProfile
	// AllocatedEntries is the Equation 5 merged table requirement.
	AllocatedEntries uint64
}

// NewProfile returns an empty profile with designer parameter L
// (DefaultL when l <= 0).
func NewProfile(l int) *Profile {
	if l <= 0 {
		l = DefaultL
	}
	return &Profile{L: l, PCs: make(map[mem.Addr]PCProfile)}
}

// merge applies Equation 4 to one scalar.
func (p *Profile) merge(old, new float64) float64 {
	den := p.Loops + 1
	if den > p.L {
		den = p.L
	}
	return old + (new-old)/float64(den)
}

// Learn folds one profiling run's counters into the profile and advances the
// loop counter. The first call (Loops == 0) adopts the counters directly.
func (p *Profile) Learn(c *pmu.Counters) {
	for pc, e := range c.PC {
		newAcc := e.Accuracy()
		newMiss := float64(e.L2Misses)
		old, seen := p.PCs[pc]
		if !seen {
			// o not in X: adopt the new observation (Loads B/C).
			p.PCs[pc] = PCProfile{Accuracy: newAcc, MissWeight: newMiss}
			continue
		}
		merged := old
		// A PC that issued nothing this run (-1) carries no accuracy
		// evidence; keep the old estimate. Symmetrically, a PC with no
		// prior accuracy adopts the new one.
		switch {
		case newAcc < 0:
			// no new evidence
		case old.Accuracy < 0:
			merged.Accuracy = newAcc
		default:
			merged.Accuracy = p.merge(old.Accuracy, newAcc)
		}
		merged.MissWeight = p.merge(old.MissWeight, newMiss)
		p.PCs[pc] = merged
	}
	// Equation 5: conservative maximum of table requirements.
	if n := c.AllocatedEntries(); n > p.AllocatedEntries {
		p.AllocatedEntries = n
	}
	p.Loops++
}

// Accuracy returns the merged accuracy for pc (-1 when unknown).
func (p *Profile) Accuracy(pc mem.Addr) float64 {
	if e, ok := p.PCs[pc]; ok {
		return e.Accuracy
	}
	return -1
}

// Clone deep-copies the profile.
func (p *Profile) Clone() *Profile {
	out := &Profile{L: p.L, Loops: p.Loops, AllocatedEntries: p.AllocatedEntries, PCs: make(map[mem.Addr]PCProfile, len(p.PCs))}
	for k, v := range p.PCs {
		out.PCs[k] = v
	}
	return out
}
