// Package temporal provides the shared substrate of all on-chip temporal
// prefetchers in this repository (Triage, Triangel, Prophet): the compressed
// address space, the in-LLC Markov metadata table with pluggable replacement,
// the prefetcher engine interface the simulator drives, a metadata reuse
// buffer, and the Markov-target histogram behind Figure 8.
//
// Metadata format (Section 3.1): each 64-byte LLC line packs 12 compressed
// entries of {10-bit tag, 31-bit target}. With the Table 1 LLC (2MB, 16-way,
// 2048 sets) one way holds 2048 lines x 12 = 24,576 entries, so the paper's
// 1MB maximum table is 8 ways = 196,608 entries — the exact figure Section
// 5.10 uses.
package temporal

import (
	"sync/atomic"

	"prophet/internal/mem"
)

// IndexBits is the width of a compressed address (the 31-bit "target
// address" of the metadata format).
const IndexBits = 31

// MaxIndex is the largest representable compressed index.
const MaxIndex = 1<<IndexBits - 1

// Compressor maintains the bidirectional mapping between cache-line
// addresses and the 31-bit compressed indices stored in metadata entries.
// Triage introduced this structure so that metadata fits 41 bits per entry;
// we reproduce it exactly. Index assignment is first-touch sequential, and
// the mapping wraps (overwriting the oldest index) if a run ever exceeds
// 2^31 distinct lines, which no simulated workload approaches.
//
// Index sits on the per-access hot path of every temporal scheme, so the
// line -> index direction is an open-addressed probe map rather than a Go
// map: one flat probe per lookup, no per-entry allocations.
type Compressor struct {
	toIndex *probeMap[mem.Line]
	toLine  []mem.Line
	free    atomic.Bool // see recycler
}

// compressors recycles Released compressors across runs. A compressor
// grows to the distinct-line footprint of its run (tens to hundreds of
// thousands of lines); a fresh one per run would regrow from the presize
// below, leaving every intermediate probe table and toLine slice behind as
// garbage.
var compressors = recycler[Compressor]{free: func(c *Compressor) *atomic.Bool { return &c.free }}

// NewCompressor returns an empty compressor, reusing the storage of a
// Released one when available. A reused compressor is observably fresh:
// its probe map is cleared and toLine truncated, so indices are assigned
// first-touch from 0 exactly as in a new one.
func NewCompressor() *Compressor {
	if c := compressors.get(); c != nil {
		c.toIndex.clear()
		c.toLine = c.toLine[:0]
		return c
	}
	// Presized for the tens of thousands of distinct lines a typical
	// simulated trace touches, so steady-state Index calls rarely rehash.
	return &Compressor{
		toIndex: newProbeMap[mem.Line](1 << 15),
		toLine:  make([]mem.Line, 0, 1<<14),
	}
}

// Release makes the compressor's storage available to a future
// NewCompressor. The caller must not touch the compressor afterwards.
// Releasing is optional — an unreleased compressor is ordinary garbage.
func (c *Compressor) Release() {
	if c == nil {
		return
	}
	compressors.put(c)
}

// Index returns the compressed index for line l, allocating one on first use.
func (c *Compressor) Index(l mem.Line) uint32 {
	if idx, ok := c.toIndex.get(l); ok {
		return idx
	}
	idx := uint32(len(c.toLine)) & MaxIndex
	if len(c.toLine) <= int(idx) {
		c.toLine = append(c.toLine, l)
	} else {
		// Wrapped: recycle the slot.
		c.toIndex.del(c.toLine[idx])
		c.toLine[idx] = l
	}
	c.toIndex.set(l, idx)
	return idx
}

// Lookup returns the index for l without allocating.
func (c *Compressor) Lookup(l mem.Line) (uint32, bool) {
	return c.toIndex.get(l)
}

// Line translates a compressed index back to its line address.
func (c *Compressor) Line(idx uint32) (mem.Line, bool) {
	if int(idx) >= len(c.toLine) {
		return 0, false
	}
	return c.toLine[idx], true
}

// Entries returns the number of live mappings (for storage accounting).
func (c *Compressor) Entries() int { return c.toIndex.len() }
