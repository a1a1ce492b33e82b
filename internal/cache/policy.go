// Package cache implements the set-associative caches of the simulated
// memory hierarchy (Table 1 of the paper): tag state, dirty bits,
// prefetch-fill bookkeeping, per-line fill-ready cycles for timeliness
// modelling, and pluggable replacement policies (LRU, tree-PLRU, SRRIP).
//
// Caches here are functional state machines: they decide hits, victims and
// recency. Latency and bandwidth are accounted by internal/sim and
// internal/dram, which consult the per-line Ready cycle recorded at fill
// time to charge partial latency for late prefetches.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects a replacement policy for a cache.
type Policy uint8

const (
	// LRU is true least-recently-used replacement.
	LRU Policy = iota
	// PLRU is tree-based pseudo-LRU (falls back to CLOCK for
	// non-power-of-two associativity, which only arises after resizing).
	PLRU
	// SRRIP is 2-bit static re-reference interval prediction (Jaleel et
	// al., ISCA'10), the policy Triangel uses for its metadata table and a
	// good stand-in for the hierarchy-aware LLC policy in Table 1.
	SRRIP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case PLRU:
		return "PLRU"
	case SRRIP:
		return "SRRIP"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

const (
	srripBits    = 2
	srripMax     = 1<<srripBits - 1 // 3: distant re-reference
	srripInsert  = srripMax - 1     // 2: long re-reference on insert
	srripPromote = 0                // hit promotion
)

// replacer tracks recency metadata for every set of one cache. A single
// replacer instance backs the whole cache with flat state arrays (indexed
// set*ways + way); the per-set objects this replaces cost two allocations
// per set — thousands per simulated system — and scattered the state across
// the heap.
type replacer interface {
	// touch records a hit on way w of set si at the given logical time.
	touch(si, w int, now uint64)
	// insert records a fill into way w of set si.
	insert(si, w int, now uint64)
	// victim picks the way to evict among ways [0, limit) of set si. All
	// ways in range are guaranteed valid when victim is called.
	victim(si, limit int) int
	// reset restores the just-constructed state (for scratch reuse).
	reset()
}

// --- LRU ---

type lruState struct {
	ways int
	last []uint64 // sets*ways flat
}

func newLRU(sets, ways int) *lruState {
	return &lruState{ways: ways, last: make([]uint64, sets*ways)}
}

func (s *lruState) touch(si, w int, now uint64)  { s.last[si*s.ways+w] = now }
func (s *lruState) insert(si, w int, now uint64) { s.last[si*s.ways+w] = now }

func (s *lruState) victim(si, limit int) int {
	base := si * s.ways
	best, bestT := 0, s.last[base]
	for w := 1; w < limit; w++ {
		if s.last[base+w] < bestT {
			best, bestT = w, s.last[base+w]
		}
	}
	return best
}

func (s *lruState) reset() { clear(s.last) }

// --- tree PLRU (power-of-two ways) with CLOCK fallback ---

// plruState keeps one tree of ways-1 bits per set. Bit i is node i (root =
// 1, children of node n are 2n and 2n+1, leaf w is node ways+w); a set bit
// points at the right subtree, which is then the colder half.
type plruState struct {
	ways   int
	pow2   bool
	levels int      // log2(ways): tree depth from root to leaf
	bits   []uint64 // per-set tree bits
	set    []uint64 // per way: the path nodes promote points right (w is left of them)
	clr    []uint64 // per way: the path nodes promote points left
	ref    []bool   // CLOCK fallback, sets*ways flat
	hand   []int32  // CLOCK hand per set
}

func newPLRU(sets, ways int) *plruState {
	s := &plruState{
		ways: ways,
		pow2: ways&(ways-1) == 0,
		bits: make([]uint64, sets),
		ref:  make([]bool, sets*ways),
		hand: make([]int32, sets),
	}
	if s.pow2 {
		s.levels = bits.TrailingZeros(uint(ways))
		s.set = make([]uint64, ways)
		s.clr = make([]uint64, ways)
		// Promoting w points every node on its path away from it: walk
		// from leaf w up, marking each parent by the side w came from.
		for w := range ways {
			for node := ways + w; node > 1; node >>= 1 {
				if node&1 == 0 {
					s.set[w] |= 1 << uint(node>>1)
				} else {
					s.clr[w] |= 1 << uint(node>>1)
				}
			}
		}
	}
	return s
}

func (s *plruState) touch(si, w int, _ uint64)  { s.promote(si, w) }
func (s *plruState) insert(si, w int, _ uint64) { s.promote(si, w) }

func (s *plruState) promote(si, w int) {
	if s.pow2 {
		s.bits[si] = s.bits[si]&^s.clr[w] | s.set[w]
		return
	}
	s.ref[si*s.ways+w] = true
}

func (s *plruState) victim(si, limit int) int {
	if s.pow2 && limit == s.ways {
		// Follow the bits from the root to the colder leaf.
		tree := s.bits[si]
		node := 1
		for range s.levels {
			node = node<<1 | int(tree>>uint(node)&1)
		}
		return node - s.ways
	}
	// CLOCK over [0, limit).
	base := si * s.ways
	hand := int(s.hand[si])
	for i := 0; i < 2*limit; i++ {
		w := hand % limit
		hand = (hand + 1) % limit
		if !s.ref[base+w] {
			s.hand[si] = int32(hand)
			return w
		}
		s.ref[base+w] = false
	}
	s.hand[si] = int32(hand)
	return 0
}

func (s *plruState) reset() {
	clear(s.bits)
	clear(s.ref)
	clear(s.hand)
}

// --- SRRIP ---

type srripState struct {
	ways int
	rrpv []uint8 // sets*ways flat
}

func newSRRIP(sets, ways int) *srripState {
	s := &srripState{ways: ways, rrpv: make([]uint8, sets*ways)}
	s.reset()
	return s
}

func (s *srripState) touch(si, w int, _ uint64)  { s.rrpv[si*s.ways+w] = srripPromote }
func (s *srripState) insert(si, w int, _ uint64) { s.rrpv[si*s.ways+w] = srripInsert }

func (s *srripState) victim(si, limit int) int {
	base := si * s.ways
	for {
		for w := 0; w < limit; w++ {
			if s.rrpv[base+w] >= srripMax {
				return w
			}
		}
		for w := 0; w < limit; w++ {
			s.rrpv[base+w]++
		}
	}
}

func (s *srripState) reset() {
	for i := range s.rrpv {
		s.rrpv[i] = srripMax
	}
}

func newReplacer(p Policy, sets, ways int) replacer {
	switch p {
	case LRU:
		return newLRU(sets, ways)
	case PLRU:
		return newPLRU(sets, ways)
	case SRRIP:
		return newSRRIP(sets, ways)
	}
	panic("cache: unknown policy " + p.String())
}
