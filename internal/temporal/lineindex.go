package temporal

import "prophet/internal/mem"

// LineIndex maps cache lines to small integer slots (ring positions, table
// indices). It is the exported face of the open-addressed probe map for the
// scheme packages, which use it to index their samplers without paying Go
// map costs on every trainable access.
type LineIndex struct {
	m *probeMap[mem.Line]
}

// NewLineIndex returns an index pre-sized for capHint lines.
func NewLineIndex(capHint int) *LineIndex {
	return &LineIndex{m: newProbeMap[mem.Line](capHint)}
}

// Get returns the slot stored for l.
func (x *LineIndex) Get(l mem.Line) (int, bool) {
	v, ok := x.m.get(l)
	return int(v), ok
}

// Set stores l -> slot.
func (x *LineIndex) Set(l mem.Line, slot int) { x.m.set(l, uint32(slot)) }

// Del removes l if present.
func (x *LineIndex) Del(l mem.Line) { x.m.del(l) }

// Len returns the number of indexed lines.
func (x *LineIndex) Len() int { return x.m.len() }

// Clear empties the index, keeping its capacity.
func (x *LineIndex) Clear() { x.m.clear() }

// IndexSet is a set of compressed indices — the distinct-source estimator
// of Triage's resizing logic, which adds one element per trainable access.
// Compressed indices are dense from 0 (first-touch order), so the set is a
// bitset with one bit per index, grown to the largest index added. The zero
// value is an empty set.
type IndexSet struct {
	words []uint64
	n     int
}

// Add inserts idx.
func (s *IndexSet) Add(idx uint32) {
	w := int(idx >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	if bit := uint64(1) << (idx & 63); s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// Len returns the number of distinct elements.
func (s *IndexSet) Len() int { return s.n }

// Clear empties the set, keeping its capacity.
func (s *IndexSet) Clear() {
	clear(s.words)
	s.n = 0
}
