// Package core implements Prophet, the paper's contribution: a
// hardware/software co-designed temporal prefetcher whose metadata-table
// insertion policy, replacement policy and resizing are driven by
// profile-guided hints injected into the program rather than by short-term
// runtime heuristics.
//
// The split of responsibilities follows Figure 4:
//
//   - PC-level hints (1 insertion bit + n priority bits, 3 bits total at the
//     paper's n=2) ride on demand requests. They are installed once, at
//     program start, into a 128-entry hint buffer near the prefetcher
//     (Section 4.4, the "hint buffer" injection method).
//   - Application-level hints (the metadata-table way allocation, or a
//     "disable temporal prefetching" verdict) are written into a CSR by one
//     manipulation instruction at program entry (Section 4.2, Equation 3).
//   - The Multi-path Victim Buffer (Section 4.5) catches Markov targets
//     evicted from the table so addresses with several successors keep all
//     of them reachable.
//
// The engine coexists with the runtime scheme: with every Prophet feature
// flag off it degenerates to "Triage at degree d with Triangel's metadata
// format", which is exactly the ablation baseline of Figure 19.
package core

import (
	"cmp"
	"slices"

	"prophet/internal/mem"
)

// PriorityBits is n in Equation 2; the paper settles on n = 2 (Figure 16b),
// giving 4 priority levels and a 2-bit replacement state per entry.
const PriorityBits = 2

// Hint is the per-PC hint of Section 4.2: Equation 1's insertion decision
// and Equation 2's replacement priority level.
type Hint struct {
	// Insert is I(acc): false when the PC's profiled accuracy fell below
	// EL_ACC, instructing the prefetcher to discard the PC's requests.
	Insert bool
	// Priority is R(acc) in [0, 2^n).
	Priority uint8
}

// HintSet is everything the Analysis step injects into a binary: the
// PC-level hint table and the application-level CSR contents.
type HintSet struct {
	// PC maps memory-instruction addresses to their hints. The injection
	// path truncates this to HintBufferEntries by miss contribution.
	PC map[mem.Addr]Hint
	// MetaWays is Equation 3's way allocation for the metadata table.
	MetaWays int
	// DisableTP records Equation 3's "< 0.5 ways" verdict: temporal
	// prefetching is globally disabled for this binary.
	DisableTP bool
}

// Clone deep-copies the hint set.
func (h HintSet) Clone() HintSet {
	pc := make(map[mem.Addr]Hint, len(h.PC))
	for k, v := range h.PC {
		pc[k] = v
	}
	return HintSet{PC: pc, MetaWays: h.MetaWays, DisableTP: h.DisableTP}
}

// HintBufferEntries is the hint-buffer capacity: "a 128-entry hint buffer
// (0.19 KB) is sufficient for achieving high performance" (Section 4.4).
const HintBufferEntries = 128

// HintBuffer is the hardware structure near the prefetcher that stores
// injected PC hints. Entries are installed once at program start by hint
// instructions; lookups happen on every demand request.
type HintBuffer struct {
	cap   int
	hints map[mem.Addr]Hint
	cands []hintCand // Install's ranking scratch, kept for the next Install
}

type hintCand struct {
	pc mem.Addr
	w  uint64
}

// NewHintBuffer returns a hint buffer with the given capacity
// (HintBufferEntries when capEntries <= 0).
func NewHintBuffer(capEntries int) *HintBuffer {
	b := &HintBuffer{}
	b.setCap(capEntries)
	b.hints = make(map[mem.Addr]Hint, b.cap)
	return b
}

// setCap sets the capacity the next Install fills to (HintBufferEntries
// when capEntries <= 0).
func (b *HintBuffer) setCap(capEntries int) {
	if capEntries <= 0 {
		capEntries = HintBufferEntries
	}
	b.cap = capEntries
}

// Install loads hints for the given PCs, prioritized by weight (miss
// contribution, Section 4.4: "Prophet focuses on memory instructions that
// contribute the most to cache misses"), in place of any installed before.
// It returns the number installed, at most the buffer capacity.
func (b *HintBuffer) Install(hints map[mem.Addr]Hint, weight map[mem.Addr]uint64) int {
	cands := b.cands[:0]
	for pc := range hints {
		cands = append(cands, hintCand{pc: pc, w: weight[pc]})
	}
	slices.SortFunc(cands, func(x, y hintCand) int {
		if c := cmp.Compare(y.w, x.w); c != 0 {
			return c
		}
		return cmp.Compare(x.pc, y.pc) // deterministic tie-break
	})
	b.cands = cands
	clear(b.hints)
	for _, c := range cands {
		if len(b.hints) >= b.cap {
			break
		}
		b.hints[c.pc] = hints[c.pc]
	}
	return len(b.hints)
}

// Lookup returns the hint for pc, if installed.
func (b *HintBuffer) Lookup(pc mem.Addr) (Hint, bool) {
	h, ok := b.hints[pc]
	return h, ok
}

// CSR is the control-and-status register carrying application-level hints
// (Section 3.1). One manipulation instruction at program start writes it.
type CSR struct {
	// ProphetEnabled activates the profile-guided policies; when false
	// the runtime scheme operates alone.
	ProphetEnabled bool
	// MetaWays is the profile-guided metadata-table allocation.
	MetaWays int
	// TPDisabled turns the temporal prefetcher off entirely (Equation 3
	// result below 0.5 ways).
	TPDisabled bool
}
