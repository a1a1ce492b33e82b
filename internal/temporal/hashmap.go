package temporal

import "math/bits"

// probeMap is a small open-addressed hash map from integer keys to uint32
// values, used on the simulator's per-access hot paths (the metadata reuse
// buffer, Triangel's samplers, LineIndex) in place of Go's built-in map.
// The Compressor does not use it: it keeps its own key-free table.
// probeMap exists for speed and allocation behaviour, not generality:
//
//   - linear probing in one flat backing array — no per-entry allocations,
//     no bucket pointers, cache-line-friendly probes;
//   - growth only (by rehash) at 3/4 load; deletion uses backward-shift
//     compaction, so no tombstones accumulate and lookups stay O(probe run);
//   - fully deterministic: iteration is never exposed, so callers cannot
//     depend on ordering the way they could with a built-in map.
//
// The zero value is not usable; construct with newProbeMap.
type probeMap[K ~uint32 | ~uint64] struct {
	keys  []K
	vals  []uint32
	state []uint8 // 0 = empty, 1 = occupied
	count int
	mask  uint64
}

// newProbeMap returns a map pre-sized for capHint entries.
func newProbeMap[K ~uint32 | ~uint64](capHint int) *probeMap[K] {
	n := 8
	for n < capHint*4/3+1 {
		n <<= 1
	}
	m := &probeMap[K]{}
	m.alloc(n)
	return m
}

func (m *probeMap[K]) alloc(n int) {
	m.keys = make([]K, n)
	m.vals = make([]uint32, n)
	m.state = make([]uint8, n)
	m.mask = uint64(n - 1)
	m.count = 0
}

// hash mixes the key with a Fibonacci multiplier; the high bits feed the
// table index so nearby keys spread across the table.
func (m *probeMap[K]) hash(k K) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	return bits.RotateLeft64(x, 31)
}

// get returns the value stored for k.
func (m *probeMap[K]) get(k K) (uint32, bool) {
	i := m.hash(k) & m.mask
	for m.state[i] != 0 {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// set inserts or updates k -> v.
func (m *probeMap[K]) set(k K, v uint32) {
	if m.count*4 >= len(m.keys)*3 {
		m.grow()
	}
	i := m.hash(k) & m.mask
	for m.state[i] != 0 {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i] = k
	m.vals[i] = v
	m.state[i] = 1
	m.count++
}

// del removes k if present, compacting the probe run behind it
// (backward-shift deletion) so no tombstones are needed.
func (m *probeMap[K]) del(k K) {
	i := m.hash(k) & m.mask
	for m.state[i] != 0 {
		if m.keys[i] == k {
			m.count--
			// Shift subsequent entries of the same run back into the
			// hole when their home slot precedes it.
			hole := i
			j := (i + 1) & m.mask
			for m.state[j] != 0 {
				home := m.hash(m.keys[j]) & m.mask
				// The entry at j may move into the hole only if its
				// home position does not sit strictly between the
				// hole and j (cyclically) — otherwise probing for it
				// would terminate at the hole.
				if (j-home)&m.mask >= (j-hole)&m.mask {
					m.keys[hole] = m.keys[j]
					m.vals[hole] = m.vals[j]
					hole = j
				}
				j = (j + 1) & m.mask
			}
			m.keys[hole] = 0
			m.vals[hole] = 0
			m.state[hole] = 0
			return
		}
		i = (i + 1) & m.mask
	}
}

// len returns the number of stored entries.
func (m *probeMap[K]) len() int { return m.count }

// clear empties the map, keeping its capacity: an entry exists only where
// its state byte is set, so stale keys and values are never read.
func (m *probeMap[K]) clear() {
	clear(m.state)
	m.count = 0
}

func (m *probeMap[K]) grow() {
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.alloc(len(oldKeys) * 2)
	for i, s := range oldState {
		if s != 0 {
			// Direct re-insert; no growth can trigger here.
			j := m.hash(oldKeys[i]) & m.mask
			for m.state[j] != 0 {
				j = (j + 1) & m.mask
			}
			m.keys[j] = oldKeys[i]
			m.vals[j] = oldVals[i]
			m.state[j] = 1
			m.count++
		}
	}
}
