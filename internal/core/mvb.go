package core

import "math/bits"

// Multi-path Victim Buffer (Section 4.5). The metadata table stores one
// Markov target per source; addresses participating in several temporal
// sequences — (A,B,C) and (A,B,D) give B two successors — keep losing one of
// them. The MVB catches targets evicted from the table so that a prefetch
// trigger can fetch the alternate successors as well.
//
// Management rules (Section 4.5):
//
//   - Insertion: only targets whose Prophet priority level exceeds 0
//     (acc > EL_ACC) are buffered.
//   - Replacement: each target carries a small counter incremented on use;
//     the entry with the lowest counter is the victim (the paper reuses the
//     Prophet replacement policy with "priority = maximal counter value").
//   - Prefetch: every table/reuse-buffer-triggered prefetch also looks up
//     the MVB with the same source key and prefetches any *different*
//     targets found.
//
// Geometry (Section 5.10): 65,536 entries x 43 bits (31-bit target, 10-bit
// tag, 2-bit counter) = 344KB.
//
// Storage is one flat []uint64, a word per entry (512 KiB at the default
// size), set after set. A word holds, from the low bit:
//
//	bits  0–30  target (31 bits, the metadata table's compressed target)
//	bits 31–40  tag (10 bits)
//	bit  41     valid
//	bits 42–61  recency within the set (20 bits; higher is more recent)
//	bits 62–63  use counter (2 bits)
//
// so word>>42 is the victim key: lowest counter first, then least recently
// used, then way order. An entry touched now takes a recency one above
// every other in its set; the entries one multi-candidate lookup touches
// share it, so their tie falls to way order. When a set's recency would
// pass 20 bits, its recencies are first renumbered densely from 0, which
// keeps their order and their ties.
//
// A Prophet engine keeps its buffer, so a recycled engine's run reuses the
// last run's words.
type VictimBuffer struct {
	setBits    uint
	assoc      int
	candidates int
	words      []uint64

	inserts uint64
	hits    uint64
}

const (
	vbTagBits    = 10
	vbTagMask    = 1<<vbTagBits - 1
	vbCounterMax = 3 // 2-bit counter

	vbTargetMask = 1<<31 - 1
	vbTagShift   = 31
	vbValid      = 1 << 41
	vbEntryMask  = 1<<42 - 1 // target, tag and valid bit
	vbRecShift   = 42
	vbRecMax     = 1<<20 - 1
	vbCtrShift   = 62
)

// DefaultMVBEntries is the evaluated buffer size (Section 5.10).
const DefaultMVBEntries = 65536

// MVBEntryBits is one entry's hardware cost as Section 5.10 accounts it: a
// 31-bit target, a 10-bit tag and a 2-bit use counter. The valid bit and
// the recency field of the word layout above are simulator bookkeeping.
const MVBEntryBits = 31 + vbTagBits + 2

// NewVictimBuffer builds an MVB with the given total entries (rounded up to
// a power of two), set associativity, and the number of alternate targets
// returned per lookup (Figure 16c's "Candidates", 1 in the final design).
func NewVictimBuffer(entries, assoc, candidates int) *VictimBuffer {
	b := &VictimBuffer{}
	b.reset(entries, assoc, candidates)
	return b
}

// reset gives b the geometry NewVictimBuffer describes, empty, reusing its
// words when they are enough.
func (b *VictimBuffer) reset(entries, assoc, candidates int) {
	if assoc <= 0 {
		assoc = 4
	}
	if candidates <= 0 {
		candidates = 1
	}
	if entries < assoc {
		entries = assoc
	}
	setCount := 1
	for setCount*assoc < entries {
		setCount <<= 1
	}
	if n := setCount * assoc; cap(b.words) < n {
		b.words = make([]uint64, n)
	} else {
		b.words = b.words[:n]
		clear(b.words)
	}
	b.setBits = uint(bits.TrailingZeros(uint(setCount)))
	b.assoc = assoc
	b.candidates = candidates
	b.inserts, b.hits = 0, 0
}

// Entries returns the buffer capacity in entries.
func (b *VictimBuffer) Entries() int { return len(b.words) }

// locate returns srcKey's set and the valid bit and tag every entry of
// srcKey carries.
func (b *VictimBuffer) locate(srcKey uint32) (ways []uint64, key uint64) {
	set := int(srcKey&(1<<b.setBits-1)) * b.assoc
	key = vbValid | uint64(srcKey>>b.setBits&vbTagMask)<<vbTagShift
	return b.words[set : set+b.assoc : set+b.assoc], key
}

// stamp returns the recency for entries of ways touched now: one above
// every entry's (an invalid word's recency is 0). At the field's limit it
// first renumbers the set.
func stamp(ways []uint64) uint64 {
	var top uint64
	for _, w := range ways {
		top = max(top, w>>vbRecShift&vbRecMax)
	}
	if top < vbRecMax {
		return top + 1
	}
	return renumber(ways)
}

// renumber gives the valid entries of ways dense recencies from 0 in their
// recency order, equal recencies staying equal, and returns the next free
// one. Each pass takes the smallest recency above the last one renumbered;
// a renumbered entry's new value never exceeds its old one, so no pass
// sees it again.
func renumber(ways []uint64) uint64 {
	var next uint64
	for prev := int64(-1); ; next++ {
		low := int64(vbRecMax + 1)
		for _, w := range ways {
			if r := int64(w >> vbRecShift & vbRecMax); w&vbValid != 0 && r > prev {
				low = min(low, r)
			}
		}
		if low > vbRecMax {
			return next
		}
		for i, w := range ways {
			if w&vbValid != 0 && int64(w>>vbRecShift&vbRecMax) == low {
				ways[i] = w&^(vbRecMax<<vbRecShift) | next<<vbRecShift
			}
		}
		prev = low
	}
}

// Insert buffers an evicted Markov target (31 bits, as the metadata table
// stores it). Only call for targets whose Prophet priority exceeds 0; the
// caller enforces the Section 4.5 insertion rule. Duplicate (source,
// target) pairs refresh the existing entry.
func (b *VictimBuffer) Insert(srcKey, target uint32) {
	ways, key := b.locate(srcKey)
	entry := key | uint64(target&vbTargetMask)
	for i, w := range ways {
		if w&vbEntryMask == entry {
			rec := stamp(ways)
			ways[i] = ways[i]&^(vbRecMax<<vbRecShift) | rec<<vbRecShift
			return
		}
	}
	b.inserts++
	entry |= stamp(ways) << vbRecShift
	// The first empty way, else the victim: lowest counter
	// (least-proven target), least recently used on ties, then way order.
	vi := 0
	for i, w := range ways {
		if w&vbValid == 0 {
			vi = i
			break
		}
		if w>>vbRecShift < ways[vi]>>vbRecShift {
			vi = i
		}
	}
	ways[vi] = entry
}

// Lookup returns up to Candidates targets recorded for srcKey, excluding
// exclude (the target the metadata table already supplied). Returned entries
// have their use counters incremented, implementing the Section 4.5
// replacement rule.
func (b *VictimBuffer) Lookup(srcKey uint32, exclude uint32) []uint32 {
	return b.AppendLookup(nil, srcKey, exclude)
}

// AppendLookup is Lookup appending into dst, so the per-prediction caller
// can recycle one scratch buffer instead of allocating per hit.
func (b *VictimBuffer) AppendLookup(dst []uint32, srcKey uint32, exclude uint32) []uint32 {
	ways, key := b.locate(srcKey)
	found := 0
	var rec uint64
	for i, w := range ways {
		target := uint32(w & vbTargetMask)
		if w&(vbEntryMask&^vbTargetMask) != key || target == exclude {
			continue
		}
		if found == 0 {
			rec = stamp(ways) // every entry this lookup touches shares it
		}
		counter := min(w>>vbCtrShift+1, vbCounterMax)
		ways[i] = counter<<vbCtrShift | rec<<vbRecShift | w&vbEntryMask
		dst = append(dst, target)
		found++
		if found >= b.candidates {
			break
		}
	}
	if found > 0 {
		b.hits++
	}
	return dst
}

// Stats returns (inserts, hits) for reporting.
func (b *VictimBuffer) Stats() (inserts, hits uint64) { return b.inserts, b.hits }
