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
//
// Metadata is stored at its information size. A table slot is 7 bytes: the
// 4-byte target, a 2-byte tag word holding the 10-bit tag, the 2-bit RRPV
// and a live bit, and a 1-byte Prophet priority. The compressor stores a
// line in 4 bytes while every line fits 32 bits (all catalog workloads do)
// and in 8 once one does not.
//
// Two hash structures sit on the per-access path. The Compressor keeps its
// own key-free index table (4 bytes a slot, see below); probeMap, a generic
// open-addressed map, backs the smaller per-engine indexes (LineIndex, the
// reuse buffer, the histogram).
package temporal

import (
	"math/bits"

	"prophet/internal/mem"
	"prophet/internal/recycle"
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
// Index sits on the per-access hot path of every temporal scheme, and the
// compressor is the largest live structure of a temporal run, so the
// line -> index direction is a linear-probing table that stores no keys:
// a slot holds index+1 (0 = empty), and its key is the index's line. That
// is 4 bytes a slot plus the line every index needs anyway, which is stored
// at its information size: toLine keeps each line's low 32 bits, and hi
// its high 32 bits only once some line needs them. Every catalog workload
// stays below 2^32, so a line costs 4 bytes and hi stays nil; a recorded
// trace with higher addresses pays 8. toLine's capacity is ¾ of the slot
// count, so the arrays grow together, by doubling, when the table reaches
// ¾ load.
type Compressor struct {
	slots  []uint32 // index+1 of the line homed at or probed to this slot; 0 = empty
	mask   uint64   // len(slots)-1
	toLine []uint32 // index -> the line's low 32 bits; cap(toLine) = len(slots)*3/4
	hi     []uint32 // index -> the line's high 32 bits, len cap(toLine); nil while every line fits 32 bits
	wrap   uint32   // next index to recycle once all 2^31 are in use
	rc     recycle.Slot
}

// compressorSlots is a new compressor's slot count: the smallest power of
// two whose ¾ load holds as many lines as the paper's 1 MB table has
// entries (DefaultTableConfig().MaxEntries(), 196,608), so 2^18 slots
// (1 MiB) and 196,608 lines (768 KiB). A catalog workload at its default
// length trains 47k–184k distinct lines, so a process allocates this once
// and no such run grows it; a larger footprint (a longer run or a recorded
// trace) still doubles from here.
var compressorSlots = slotsFor(DefaultTableConfig().MaxEntries())

// slotsFor returns the smallest power of two whose ¾ holds lines.
func slotsFor(lines int) int {
	n := 1
	for n/4*3 < lines {
		n <<= 1
	}
	return n
}

// compressors recycles Released compressors across runs, so a process
// allocates its compressor storage once per concurrent run, and regrows it
// only for a run past the presize.
var compressors = recycle.New(func() *Compressor {
	c := &Compressor{}
	c.alloc(compressorSlots)
	return c
}, func(c *Compressor) *recycle.Slot { return &c.rc })

// NewCompressor returns an empty compressor, reusing the storage of a
// Released one when available. A reused compressor is observably fresh:
// its slots are cleared, toLine truncated and the high halves dropped, so
// indices are assigned first-touch from 0 exactly as in a new one, and it
// starts narrow whatever lines its last run saw.
func NewCompressor() *Compressor {
	c := compressors.Get()
	clear(c.slots)
	c.toLine = c.toLine[:0]
	c.hi = nil
	c.wrap = 0
	return c
}

// alloc gives the compressor n empty slots (a power of two) and an empty
// toLine of capacity ¾ n, with no high halves.
func (c *Compressor) alloc(n int) {
	c.slots = make([]uint32, n)
	c.mask = uint64(n - 1)
	c.toLine = make([]uint32, 0, n/4*3)
	c.hi = nil
}

// line returns the line of index idx < len(toLine).
func (c *Compressor) line(idx uint32) mem.Line {
	l := mem.Line(c.toLine[idx])
	if c.hi != nil {
		l |= mem.Line(c.hi[idx]) << 32
	}
	return l
}

// setLine stores l as the line of index idx < len(toLine). The first line
// at or above 2^32 allocates hi, zero (narrow) for every index before it.
func (c *Compressor) setLine(idx uint32, l mem.Line) {
	c.toLine[idx] = uint32(l)
	if h := uint32(l >> 32); h != 0 || c.hi != nil {
		if c.hi == nil {
			c.hi = make([]uint32, cap(c.toLine))
		}
		c.hi[idx] = h
	}
}

// Release makes the compressor's storage available to a future
// NewCompressor. The caller must not touch the compressor afterwards.
// Releasing is optional — an unreleased compressor is ordinary garbage.
func (c *Compressor) Release() {
	if c == nil {
		return
	}
	compressors.Put(c)
}

// home is l's first probe slot: a Fibonacci hash whose high product bits
// feed the table index, so nearby lines spread across the table.
func (c *Compressor) home(l mem.Line) uint64 {
	return bits.RotateLeft64(uint64(l)*0x9e3779b97f4a7c15, 31) & c.mask
}

// find returns l's index+1, or 0 with the empty slot that ends l's probe
// run.
func (c *Compressor) find(l mem.Line) (v uint32, slot uint64) {
	i := c.home(l)
	for {
		v := c.slots[i]
		if v == 0 || c.line(v-1) == l {
			return v, i
		}
		i = (i + 1) & c.mask
	}
}

// Index returns the compressed index for line l, allocating one on first use.
func (c *Compressor) Index(l mem.Line) uint32 {
	v, i := c.find(l)
	if v != 0 {
		return v - 1
	}
	n := len(c.toLine)
	if n > MaxIndex {
		return c.replace(l)
	}
	if n == cap(c.toLine) {
		c.grow()
		_, i = c.find(l)
	}
	c.toLine = c.toLine[:n+1]
	c.setLine(uint32(n), l)
	c.slots[i] = uint32(n) + 1
	return uint32(n)
}

// replace reassigns the oldest index to l once all 2^31 are in use: the
// old line's slot is deleted by backward shift, so no tombstones are
// needed, and l is inserted under the recycled index.
func (c *Compressor) replace(l mem.Line) uint32 {
	idx := c.wrap
	c.wrap = (c.wrap + 1) & MaxIndex
	_, hole := c.find(c.line(idx))
	// Shift later entries of the probe run back into the hole when their
	// home slot does not sit strictly between the hole and them
	// (cyclically) — otherwise probing for them would stop at the hole.
	for j := (hole + 1) & c.mask; c.slots[j] != 0; j = (j + 1) & c.mask {
		home := c.home(c.line(c.slots[j] - 1))
		if (j-home)&c.mask >= (j-hole)&c.mask {
			c.slots[hole] = c.slots[j]
			hole = j
		}
	}
	c.slots[hole] = 0
	c.setLine(idx, l)
	_, i := c.find(l)
	c.slots[i] = idx + 1
	return idx
}

// grow doubles the slot count and the line arrays' capacity together,
// re-homing every index. Lines are distinct, so each re-insert takes the
// first empty slot of its probe run.
func (c *Compressor) grow() {
	old, oldHi := c.toLine, c.hi
	c.alloc(2 * len(c.slots))
	c.toLine = append(c.toLine, old...)
	if oldHi != nil {
		c.hi = make([]uint32, cap(c.toLine))
		copy(c.hi, oldHi)
	}
	for k := range old {
		i := c.home(c.line(uint32(k)))
		for c.slots[i] != 0 {
			i = (i + 1) & c.mask
		}
		c.slots[i] = uint32(k) + 1
	}
}

// Lookup returns the index for l without allocating.
func (c *Compressor) Lookup(l mem.Line) (uint32, bool) {
	if v, _ := c.find(l); v != 0 {
		return v - 1, true
	}
	return 0, false
}

// Line translates a compressed index back to its line address.
func (c *Compressor) Line(idx uint32) (mem.Line, bool) {
	if int(idx) >= len(c.toLine) {
		return 0, false
	}
	return c.line(idx), true
}

// Entries returns the number of live mappings (for storage accounting).
func (c *Compressor) Entries() int { return len(c.toLine) }
