package temporal

// TargetHistogram measures how many distinct Markov targets each source
// address exhibits over a run — the statistic behind Figure 8 ("54.85%,
// 20.88%, 9.71% of memory addresses have 1, 2, 3 Markov targets"). It is an
// offline measurement structure, not a hardware model, so it tracks exact
// distinct-target sets up to a small cap.
//
// Sources live in flat parallel arrays indexed through one probe map, so an
// Observe costs a single hash lookup and no per-source allocations (the old
// layout kept two Go maps and one target slice per source).
type TargetHistogram struct {
	maxDistinct int
	index       *probeMap[uint64] // src -> slot
	seen        []uint32          // observations per source
	n           []uint8           // distinct targets recorded per source
	targets     []uint64          // maxDistinct-wide window per source
}

// NewTargetHistogram returns a histogram that distinguishes target counts up
// to maxDistinct (counts beyond are clamped into the final bucket).
func NewTargetHistogram(maxDistinct int) *TargetHistogram {
	if maxDistinct < 1 {
		maxDistinct = 1
	}
	return &TargetHistogram{
		maxDistinct: maxDistinct,
		index:       newProbeMap[uint64](1 << 10),
	}
}

// Observe records that source src was followed by target.
func (h *TargetHistogram) Observe(src, target uint64) {
	slot, ok := h.index.get(src)
	if !ok {
		slot = uint32(len(h.seen))
		h.index.set(src, slot)
		h.seen = append(h.seen, 0)
		h.n = append(h.n, 0)
		for i := 0; i < h.maxDistinct; i++ {
			h.targets = append(h.targets, 0)
		}
	}
	h.seen[slot]++
	base := int(slot) * h.maxDistinct
	k := int(h.n[slot])
	for i := 0; i < k; i++ {
		if h.targets[base+i] == target {
			return
		}
	}
	if k >= h.maxDistinct {
		return // clamp: already in the final bucket
	}
	h.targets[base+k] = target
	h.n[slot]++
}

// Sources returns the number of distinct source addresses observed.
func (h *TargetHistogram) Sources() int { return len(h.n) }

// FractionsMin returns, for T = 1..maxDistinct, the fraction of sources
// observed at least minObservations times that have exactly T distinct
// targets (the final bucket holds ">= maxDistinct"). Figure 8 concerns
// addresses that recur under temporal prefetching, so its measurement uses
// a minimum of 2; one-shot addresses trivially have one target and would
// wash the distribution out.
func (h *TargetHistogram) FractionsMin(minObservations uint32) []float64 {
	out := make([]float64, h.maxDistinct)
	total := 0.0
	for slot := range h.n {
		if h.seen[slot] < minObservations {
			continue
		}
		n := int(h.n[slot])
		if n > h.maxDistinct {
			n = h.maxDistinct
		}
		out[n-1]++
		total++
	}
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
