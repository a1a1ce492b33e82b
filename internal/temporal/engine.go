package temporal

import "prophet/internal/mem"

// AccessEvent describes one L2 access presented to a temporal prefetcher.
// Both demand requests and L1-prefetch requests flow through (Section 5.1:
// prefetchers train on the L2 access stream including L1 prefetches).
type AccessEvent struct {
	// PC is the memory instruction (0 for L1-prefetch-generated traffic).
	PC mem.Addr
	// Line is the accessed cache line.
	Line mem.Line
	// Hit reports whether the access hit in the L2.
	Hit bool
	// HitPrefetched reports a first demand touch of a prefetched L2 line
	// (the access is part of the miss stream the prefetcher should train
	// on even though it technically hit).
	HitPrefetched bool
	// FromL1Prefetch marks L1-prefetcher-generated requests.
	FromL1Prefetch bool
	// Cycle is the access cycle.
	Cycle uint64
}

// Trainable reports whether the event belongs to the training stream: the
// L2 miss stream plus first touches of prefetched lines.
func (ev AccessEvent) Trainable() bool { return !ev.Hit || ev.HitPrefetched }

// Engine is a temporal prefetcher attached to the L2. The simulator calls
// OnAccess for every L2 access; the engine returns the lines to prefetch
// into the L2. Feedback about prefetch outcomes arrives through
// PrefetchUseful / PrefetchUseless, which runtime policies (Triangel's
// PatternConf) and the PMU both consume.
type Engine interface {
	// Name identifies the scheme in reports ("triage", "triangel",
	// "prophet", ...).
	Name() string
	// OnAccess observes one L2 access and returns prefetch candidates.
	// The returned slice may alias a scratch buffer owned by the engine:
	// it is valid only until the next OnAccess call, and callers must not
	// retain it. (The simulator issues the prefetches immediately, so the
	// engines recycle one buffer across all accesses of a run.)
	OnAccess(ev AccessEvent) []mem.Line
	// PrefetchUseful reports a demand hit on a line prefetched by this
	// engine; pc is the trigger PC recorded at issue.
	PrefetchUseful(trigger mem.Addr, line mem.Line)
	// PrefetchUseless reports the eviction of a prefetched line that was
	// never referenced by demand.
	PrefetchUseless(trigger mem.Addr, line mem.Line)
	// MetaWays returns the LLC ways currently held by the metadata table
	// (the demand-visible LLC shrinks by this much).
	MetaWays() int
	// TableStats exposes the metadata table counters.
	TableStats() TableStats
}

// TrainingUnit tracks, per PC, the previously accessed line so engines can
// form (previous -> current) correlations. It is bounded like the hardware
// structure (Triangel's training unit): a direct-mapped table indexed by PC.
type TrainingUnit struct {
	pcs   []mem.Addr
	lines []mem.Line
	valid []bool
}

// NewTrainingUnit returns a training unit with the given entry count
// (rounded up to a power of two).
func NewTrainingUnit(entries int) *TrainingUnit {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &TrainingUnit{
		pcs:   make([]mem.Addr, n),
		lines: make([]mem.Line, n),
		valid: make([]bool, n),
	}
}

// Reset forgets every PC, as a new unit of the same size would.
func (u *TrainingUnit) Reset() { clear(u.valid) }

func (u *TrainingUnit) slot(pc mem.Addr) int {
	x := uint64(pc) >> 2
	x ^= x >> 9
	return int(x & uint64(len(u.pcs)-1))
}

// Observe records line as PC's latest access and returns the previous line
// for the same PC, if the unit still holds it.
func (u *TrainingUnit) Observe(pc mem.Addr, line mem.Line) (prev mem.Line, ok bool) {
	i := u.slot(pc)
	if u.valid[i] && u.pcs[i] == pc {
		prev, ok = u.lines[i], true
	}
	u.pcs[i] = pc
	u.lines[i] = line
	u.valid[i] = true
	return prev, ok
}

// AppendChase walks the Markov chain from compressed source src for up to
// degree steps, appending the targets, translated back to lines, to dst.
// It is the prediction loop Triage and Triangel share; appending lets them
// recycle one scratch buffer for the whole run.
func AppendChase(dst []mem.Line, table *Table, comp *Compressor, src uint32, degree int) []mem.Line {
	cur := src
	for i := 0; i < degree; i++ {
		target, ok := table.Lookup(cur)
		if !ok {
			break
		}
		line, ok := comp.Line(target)
		if !ok {
			break
		}
		dst = append(dst, line)
		cur = target
	}
	return dst
}

// ReuseBuffer is a small fully-associative cache of recently used metadata
// (Triangel's reuse buffer). It filters repeated LLC metadata reads and
// gives the Multi-path Victim Buffer its second lookup port. Capacity is in
// entries; replacement is LRU.
//
// Storage is a flat entry array indexed through a probe map, with an
// intrusive doubly linked recency list threaded through the slots: lookups
// cost one probe, every touch moves its slot to the head, and the LRU victim
// is the tail, so inserts are O(1) and never allocate in steady state.
// Slots fill in order and are freed only by eviction (which refills them at
// once), so the live slots are always [0, Len).
type ReuseBuffer struct {
	index      *probeMap[uint32] // src -> slot in the entry arrays
	keys       []uint32
	targets    []uint32
	prev, next []int32 // recency list: head is most recent, -1 ends it
	head, tail int32
	n          int
}

// NewReuseBuffer returns a reuse buffer holding up to capEntries entries.
func NewReuseBuffer(capEntries int) *ReuseBuffer {
	if capEntries <= 0 {
		capEntries = 1
	}
	return &ReuseBuffer{
		index:   newProbeMap[uint32](capEntries),
		keys:    make([]uint32, capEntries),
		targets: make([]uint32, capEntries),
		prev:    make([]int32, capEntries),
		next:    make([]int32, capEntries),
		head:    -1,
		tail:    -1,
	}
}

// Reset empties the buffer, keeping its storage. Slots at or past Len are
// never read before an insert writes them.
func (b *ReuseBuffer) Reset() {
	b.index.clear()
	b.head, b.tail, b.n = -1, -1, 0
}

// Lookup returns the buffered target for src.
func (b *ReuseBuffer) Lookup(src uint32) (uint32, bool) {
	slot, ok := b.index.get(src)
	if !ok {
		return 0, false
	}
	b.touch(int32(slot))
	return b.targets[slot], true
}

// Insert buffers src -> target, evicting the LRU entry when full.
func (b *ReuseBuffer) Insert(src, target uint32) {
	if slot, ok := b.index.get(src); ok {
		b.targets[slot] = target
		b.touch(int32(slot))
		return
	}
	var slot int32
	if b.n == len(b.keys) {
		slot = b.tail
		b.index.del(b.keys[slot])
		b.unlink(slot)
	} else {
		slot = int32(b.n)
		b.n++
	}
	b.keys[slot] = src
	b.targets[slot] = target
	b.pushFront(slot)
	b.index.set(src, uint32(slot))
}

// touch makes slot the most recently used.
func (b *ReuseBuffer) touch(slot int32) {
	if b.head != slot {
		b.unlink(slot)
		b.pushFront(slot)
	}
}

func (b *ReuseBuffer) unlink(slot int32) {
	p, n := b.prev[slot], b.next[slot]
	if p >= 0 {
		b.next[p] = n
	} else {
		b.head = n
	}
	if n >= 0 {
		b.prev[n] = p
	} else {
		b.tail = p
	}
}

func (b *ReuseBuffer) pushFront(slot int32) {
	b.prev[slot] = -1
	b.next[slot] = b.head
	if b.head >= 0 {
		b.prev[b.head] = slot
	} else {
		b.tail = slot
	}
	b.head = slot
}

// Len returns the number of buffered entries.
func (b *ReuseBuffer) Len() int { return b.n }
