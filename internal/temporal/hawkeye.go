package temporal

// Hawkeye-style replacement for the metadata table (Section 2.1.2): the
// original Triage paper used Hawkeye (Jain & Lin, ISCA'16) to evict metadata
// entries unlikely to be reused, at a ~13KB storage cost for a ~0.25%
// speedup — which is why Triangel replaced it with SRRIP. We provide a
// Hawkeye-lite so that trade-off is reproducible: an OPT-inspired predictor
// that classifies inserted entries as cache-friendly or cache-averse from
// the observed reuse behaviour of recently evicted tags.
//
// Mechanism (a sampled ghost history standing in for OPTgen):
//
//   - every set keeps a short FIFO of recently evicted tags ("ghosts");
//   - an insert whose tag is still in the ghost list was evicted
//     prematurely — it is classified friendly and inserted protected
//     (RRPV 0 equivalent);
//   - other inserts are classified averse and inserted at distant RRPV, so
//     they yield the space quickly unless they prove reuse.
//
// The policy plugs into the Table as MetaHawkeye.

const hawkeyeGhosts = 8 // ghost tags remembered per set

// hawkeyeState holds the per-set ghost FIFO of evicted 10-bit tags, read
// from the table's tag words. It is kept in a side map so the table's slots
// carry nothing for it.
type hawkeyeState struct {
	ghosts map[int][]uint16
}

func newHawkeyeState() *hawkeyeState {
	return &hawkeyeState{ghosts: make(map[int][]uint16)}
}

// observeEviction records an evicted tag in the set's ghost list.
func (h *hawkeyeState) observeEviction(set int, tag uint16) {
	g := h.ghosts[set]
	g = append(g, tag)
	if len(g) > hawkeyeGhosts {
		g = g[len(g)-hawkeyeGhosts:]
	}
	h.ghosts[set] = g
}

// friendly reports whether a tag was recently evicted from the set (and
// removes the ghost): a premature eviction marks the entry cache-friendly.
func (h *hawkeyeState) friendly(set int, tag uint16) bool {
	g := h.ghosts[set]
	for i, t := range g {
		if t == tag {
			h.ghosts[set] = append(g[:i], g[i+1:]...)
			return true
		}
	}
	return false
}
