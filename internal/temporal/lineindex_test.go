package temporal

import (
	"testing"

	"prophet/internal/mem"
)

// TestIndexSetMatchesMap checks IndexSet's distinct count against a Go map
// over seeded adds, across growth and Clear.
func TestIndexSetMatchesMap(t *testing.T) {
	var s IndexSet
	rng := mem.NewPRNG(3)
	for epoch := range 4 {
		ref := map[uint32]bool{}
		for range 50_000 {
			idx := uint32(rng.Intn(20_000 << epoch))
			s.Add(idx)
			ref[idx] = true
		}
		s.Add(0)
		ref[0] = true
		if s.Len() != len(ref) {
			t.Fatalf("epoch %d: Len = %d, want %d", epoch, s.Len(), len(ref))
		}
		s.Clear()
		if s.Len() != 0 {
			t.Fatalf("epoch %d: Len after Clear = %d", epoch, s.Len())
		}
	}
}
