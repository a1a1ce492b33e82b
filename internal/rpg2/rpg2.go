// Package rpg2 implements the RPG2 software indirect-access prefetching
// baseline (Zhang et al., ASPLOS'24) following the Prophet paper's own
// evaluation methodology (Section 5.1):
//
//  1. a profiling pass identifies memory instructions causing at least 10%
//     of their accesses to miss and whose prefetch kernels RPG2 supports —
//     i.e. the access stream of the instruction follows a regular stride;
//  2. for each identified PC, a software prefetch is simulated by issuing a
//     request for (accessed address + distance) whenever the PC executes;
//  3. the prefetch distance is tuned by RPG2's binary search, keeping the
//     distance with the best measured performance.
//
// RPG2's defining limitation — which Figure 10 quantifies — is step 1: on
// workloads whose kernels are pointer chases or computed indices, no PC
// qualifies and the scheme degenerates to a no-op. On CRONO-style graph
// kernels (a[b[i]] with strided b[i]) it performs well (Figure 15).
package rpg2

import (
	"sort"

	"prophet/internal/mem"
)

// ProfileParams control kernel identification.
type ProfileParams struct {
	// MinMissRatio is the qualification threshold (0.10 in the paper).
	MinMissRatio float64
	// MinStrideFraction is the fraction of a PC's address deltas that must
	// equal its dominant stride for the kernel to count as stride-regular.
	MinStrideFraction float64
	// MinAccesses filters statistically insignificant PCs.
	MinAccesses uint64
}

// DefaultProfileParams returns the paper's thresholds.
func DefaultProfileParams() ProfileParams {
	return ProfileParams{MinMissRatio: 0.10, MinStrideFraction: 0.60, MinAccesses: 64}
}

// pcProfile accumulates per-PC profiling state.
type pcProfile struct {
	accesses uint64
	misses   uint64
	lastLine mem.Line
	hasLast  bool
	deltas   map[int64]uint64
}

// Profiler consumes one profiling run's demand accesses and identifies
// RPG2-qualified prefetch kernels.
type Profiler struct {
	pcs map[mem.Addr]*pcProfile
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{pcs: make(map[mem.Addr]*pcProfile)}
}

// Observe records one demand access and whether it missed the cache.
func (p *Profiler) Observe(pc mem.Addr, line mem.Line, missed bool) {
	if pc == 0 {
		return
	}
	st, ok := p.pcs[pc]
	if !ok {
		st = &pcProfile{deltas: make(map[int64]uint64)}
		p.pcs[pc] = st
	}
	st.accesses++
	if missed {
		st.misses++
	}
	if st.hasLast {
		d := int64(line) - int64(st.lastLine)
		if d != 0 {
			st.deltas[d]++
			if len(st.deltas) > 1024 {
				// Bound the histogram: drop singleton deltas.
				for k, v := range st.deltas {
					if v <= 1 {
						delete(st.deltas, k)
					}
				}
			}
		}
	}
	st.lastLine = line
	st.hasLast = true
}

// Kernel is one qualified prefetch kernel.
type Kernel struct {
	PC         mem.Addr
	StrideLine int64 // dominant stride in cache lines
	MissRatio  float64
}

// Kernels returns the PCs qualifying under params, ordered by miss count
// (descending, deterministic ties on PC).
func (p *Profiler) Kernels(params ProfileParams) []Kernel {
	var out []Kernel
	pcs := make([]mem.Addr, 0, len(p.pcs))
	for pc := range p.pcs {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		mi, mj := p.pcs[pcs[i]].misses, p.pcs[pcs[j]].misses
		if mi != mj {
			return mi > mj
		}
		return pcs[i] < pcs[j]
	})
	for _, pc := range pcs {
		st := p.pcs[pc]
		if st.accesses < params.MinAccesses {
			continue
		}
		missRatio := float64(st.misses) / float64(st.accesses)
		if missRatio < params.MinMissRatio {
			continue
		}
		var bestDelta int64
		var bestCount, total uint64
		for d, c := range st.deltas {
			total += c
			if c > bestCount || (c == bestCount && d < bestDelta) {
				bestDelta, bestCount = d, c
			}
		}
		if total == 0 || bestDelta == 0 {
			continue
		}
		if float64(bestCount)/float64(total) < params.MinStrideFraction {
			continue
		}
		out = append(out, Kernel{PC: pc, StrideLine: bestDelta, MissRatio: missRatio})
	}
	return out
}

// Prefetcher replays the simulated software prefetch instructions: on every
// execution of a kernel PC it requests (address + distance x stride). It is
// hooked at demand-access level, mirroring software prefetch placement.
type Prefetcher struct {
	kernels  map[mem.Addr]int64
	distance int
	issued   uint64
	scratch  [1]mem.Line // reused across OnDemand calls
}

// NewPrefetcher builds the runtime prefetcher from identified kernels and a
// prefetch distance (in strides ahead).
func NewPrefetcher(kernels []Kernel, distance int) *Prefetcher {
	if distance < 1 {
		distance = 1
	}
	m := make(map[mem.Addr]int64, len(kernels))
	for _, k := range kernels {
		m[k.PC] = k.StrideLine
	}
	return &Prefetcher{kernels: m, distance: distance}
}

// Name identifies the scheme.
func (p *Prefetcher) Name() string { return "rpg2" }

// Distance returns the configured prefetch distance.
func (p *Prefetcher) Distance() int { return p.distance }

// Issued returns the number of software prefetches executed.
func (p *Prefetcher) Issued() uint64 { return p.issued }

// OnDemand is called for every demand access; for kernel PCs it returns the
// software prefetch target. The returned slice aliases a scratch buffer and
// is valid until the next call.
func (p *Prefetcher) OnDemand(pc mem.Addr, line mem.Line) []mem.Line {
	stride, ok := p.kernels[pc]
	if !ok {
		return nil
	}
	target := int64(line) + stride*int64(p.distance)
	if target < 0 || target > int64(mem.MaxLine) {
		return nil
	}
	p.issued++
	p.scratch[0] = mem.Line(target)
	return p.scratch[:]
}

// TuneDistance performs RPG2's binary search over prefetch distances.
// measure runs the workload with the given distance and returns performance
// (higher is better, e.g. IPC). The search assumes the response is roughly
// unimodal in log-distance, evaluating the power-of-two ladder between 1 and
// maxDistance and narrowing to the best.
func TuneDistance(maxDistance int, measure func(distance int) float64) int {
	if maxDistance < 1 {
		maxDistance = 1
	}
	var ladder []int
	for d := 1; d <= maxDistance; d <<= 1 {
		ladder = append(ladder, d)
	}
	scores := make(map[int]float64)
	score := func(i int) float64 {
		if s, ok := scores[ladder[i]]; ok {
			return s
		}
		s := measure(ladder[i])
		scores[ladder[i]] = s
		return s
	}
	// Peak-finding binary search over the (assumed unimodal) ladder.
	lo, hi := 0, len(ladder)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if score(mid) < score(mid+1) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ladder[lo]
}
