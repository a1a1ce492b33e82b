package cache

import "testing"

// walkVictim and walkPromote are the root-to-leaf tree walks that
// plruState's mask and shift forms replace, kept as the reference.
func walkVictim(tree uint64, ways int) int {
	node, span, lo := 1, ways, 0
	for span > 1 {
		span /= 2
		if tree&(1<<uint(node)) != 0 {
			node = node*2 + 1
			lo += span
		} else {
			node = node * 2
		}
	}
	return lo
}

func walkPromote(tree uint64, ways, w int) uint64 {
	node, span, lo := 1, ways, 0
	for span > 1 {
		span /= 2
		if w < lo+span {
			tree |= 1 << uint(node)
			node = node * 2
		} else {
			tree &^= 1 << uint(node)
			node = node*2 + 1
			lo += span
		}
	}
	return tree
}

// TestPLRUMatchesTreeWalk checks, over every tree state of one set and
// every way, that victim and promote agree with the reference walks.
func TestPLRUMatchesTreeWalk(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		s := newPLRU(1, ways)
		// Nodes are 1..ways-1, so a state is a (ways-1)-bit count shifted
		// past the unused bit 0.
		for k := uint64(0); k < 1<<uint(ways-1); k++ {
			tree := k << 1
			s.bits[0] = tree
			if got, want := s.victim(0, ways), walkVictim(tree, ways); got != want {
				t.Fatalf("%d ways, tree %#x: victim %d, walk %d", ways, tree, got, want)
			}
			for w := range ways {
				s.bits[0] = tree
				s.promote(0, w)
				if got, want := s.bits[0], walkPromote(tree, ways, w); got != want {
					t.Fatalf("%d ways, tree %#x, way %d: promote %#x, walk %#x", ways, tree, w, got, want)
				}
			}
		}
	}
}
