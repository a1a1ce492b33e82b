// Package graphs provides the CRONO-style graph workloads of Figure 15:
// BFS, DFS, betweenness centrality, PageRank and SSSP over synthetic
// power-law graphs.
//
// The algorithms are real: each workload executes the traversal over a
// deterministic virtual CSR graph and records the memory accesses its array
// operations would perform — offset-array reads (strided), neighbour-array
// scans (strided), and data-dependent reads/writes of per-vertex state
// (indirect, a[b[i]]-shaped). This gives both baselines their natural food:
// RPG2 qualifies the strided kernels; temporal prefetchers learn the
// repeated traversal orders across iterations.
//
// Graphs are virtual — degrees and adjacency are deterministic hash
// functions — so multi-hundred-thousand-node workloads cost no memory
// beyond per-vertex state.
package graphs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prophet/internal/mem"
)

// Graph is a deterministic virtual graph in CSR layout.
type Graph struct {
	n      int
	avgDeg int
	seed   uint64
}

// NewGraph builds a virtual graph with n vertices and the given average
// degree (power-law-ish: a few hubs, many low-degree vertices).
func NewGraph(n, avgDeg int, seed uint64) *Graph {
	if n < 2 {
		n = 2
	}
	if avgDeg < 1 {
		avgDeg = 1
	}
	return &Graph{n: n, avgDeg: avgDeg, seed: seed}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

func (g *Graph) hash(x uint64) uint64 {
	x ^= g.seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Degree returns vertex u's out-degree: most vertices sit near the average,
// every 64th vertex is a hub with ~8x degree.
func (g *Graph) Degree(u int) int {
	h := g.hash(uint64(u) * 2654435761)
	d := g.avgDeg/2 + int(h%uint64(g.avgDeg+1))
	if u%64 == 0 {
		d *= 8
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Nbr returns vertex u's j-th neighbour: uniform over the graph, so gather
// targets rarely collide and the per-vertex state exceeds every cache level
// on the evaluated graph sizes.
func (g *Graph) Nbr(u, j int) int {
	h := g.hash(uint64(u)<<20 | uint64(j))
	return int(h>>3) % g.n
}

// offsetOf returns the CSR offset of vertex u (prefix sum of degrees,
// approximated deterministically so offsets stay strided without a real
// prefix-sum array).
func (g *Graph) offsetOf(u int) int { return u * g.avgDeg }

// --- array address model ---

// array models one of the algorithm's data arrays for address generation.
type array struct {
	base mem.Addr
	elem int // element size in bytes
}

func (a array) addr(i int) mem.Addr { return a.base + mem.Addr(i*a.elem) }

// Base addresses keep each array in its own region.
// Per-vertex state uses CRONO-style node structs (distance, parent, flags,
// padding), so neighbouring vertices do not share cache lines and gather
// successors stay distinct per vertex.
var (
	arrOffsets = array{base: 0x1_0000_0000, elem: 4}
	arrNbrs    = array{base: 0x2_0000_0000, elem: 4}
	arrWeights = array{base: 0x3_0000_0000, elem: 4}
	arrDist    = array{base: 0x4_0000_0000, elem: 64}
	arrRankSrc = array{base: 0x6_0000_0000, elem: 32}
	arrRankDst = array{base: 0x8_0000_0000, elem: 32}
	arrSigma   = array{base: 0xA_0000_0000, elem: 64}
	arrFront   = array{base: 0xC_0000_0000, elem: 4}
)

// PCs for the algorithms' load/store sites.
const (
	pcOffsets   = mem.Addr(0x500000)
	pcNbr       = mem.Addr(0x500040)
	pcWeight    = mem.Addr(0x500080)
	pcDistLoad  = mem.Addr(0x5000C0)
	pcDistStor  = mem.Addr(0x500100)
	pcRankLoad  = mem.Addr(0x500140)
	pcRankStor  = mem.Addr(0x500180)
	pcSigma     = mem.Addr(0x5001C0)
	pcSigmaBack = mem.Addr(0x500240)
	pcFrontier  = mem.Addr(0x500200)
)

// tracer packs the algorithm's access stream as it is traced, up to a
// record limit.
type tracer struct {
	pack  *mem.Packer
	limit int
}

// elemsPerLine4B: 4-byte array elements per 64-byte line; scans emit one
// coalesced access per line.
const elemsPerLine4B = 16

func (t *tracer) full() bool { return t.pack.Len() >= t.limit }

func (t *tracer) access(pc mem.Addr, addr mem.Addr, kind mem.Kind, dep uint32, gap uint16) {
	if t.full() {
		return
	}
	t.pack.Add(mem.Access{PC: pc, Addr: addr, Kind: kind, Dep: dep, Gap: gap})
}

// visitSet marks the vertices one traversal round has visited, a bit each,
// so a million-vertex graph's set takes 122 KB.
type visitSet []uint64

func newVisitSet(n int) visitSet  { return make(visitSet, (n+63)/64) }
func (s visitSet) has(u int) bool { return s[u>>6]&(1<<(u&63)) != 0 }
func (s visitSet) add(u int)      { s[u>>6] |= 1 << (u & 63) }

// --- algorithms ---

// bfs runs breadth-first searches from rotating sources until the trace
// budget is exhausted.
func bfs(g *Graph, t *tracer, seed uint64) {
	visited := newVisitSet(g.n)
	var frontier, next []int // reused across levels and rounds
	rng := mem.NewPRNG(seed)
	// A small cycling source pool: traversals from the same source repeat
	// their visit order, giving the temporal prefetcher its pattern.
	sources := make([]int, 6)
	for i := range sources {
		sources[i] = rng.Intn(g.n)
	}
	const visitBudget = 400 // bounded sub-traversal per source
	for round := 0; !t.full(); round++ {
		clear(visited)
		src := sources[round%len(sources)]
		frontier = append(frontier[:0], src)
		visited.add(src)
		visits := 0
		for len(frontier) > 0 && !t.full() && visits < visitBudget {
			next = next[:0]
			for _, u := range frontier {
				if t.full() || visits >= visitBudget {
					break
				}
				visits++
				// offsets[u], offsets[u+1]: strided kernel
				// (coalesced: one access per touched line).
				if u%elemsPerLine4B == 0 {
					t.access(pcOffsets, arrOffsets.addr(u), mem.Load, 0, 2)
				}
				deg := g.Degree(u)
				off := g.offsetOf(u)
				for j := 0; j < deg && !t.full(); j++ {
					// nbrs[off+j]: sequential scan, one
					// access per line.
					if (off+j)%elemsPerLine4B == 0 || j == 0 {
						t.access(pcNbr, arrNbrs.addr(off+j), mem.Load, 0, 1)
					}
					v := g.Nbr(u, j)
					// visited[v]: indirect, depends on the
					// neighbour load.
					t.access(pcDistLoad, arrDist.addr(v), mem.Load, 1, 1)
					if !visited.has(v) {
						visited.add(v)
						t.access(pcDistStor, arrDist.addr(v), mem.Store, 0, 1)
						next = append(next, v)
					}
				}
			}
			frontier, next = next, frontier
		}
	}
}

// dfs runs depth-first traversals (stack order) from rotating sources.
func dfs(g *Graph, t *tracer, seed uint64) {
	visited := newVisitSet(g.n)
	var stack []int // reused across rounds
	rng := mem.NewPRNG(seed)
	sources := make([]int, 6)
	for i := range sources {
		sources[i] = rng.Intn(g.n)
	}
	const visitBudget = 400
	for round := 0; !t.full(); round++ {
		clear(visited)
		stack = append(stack[:0], sources[round%len(sources)])
		visits := 0
		for len(stack) > 0 && !t.full() && visits < visitBudget {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			t.access(pcFrontier, arrFront.addr(len(stack)), mem.Load, 0, 1)
			if visited.has(u) {
				continue
			}
			visited.add(u)
			visits++
			if u%elemsPerLine4B == 0 {
				t.access(pcOffsets, arrOffsets.addr(u), mem.Load, 0, 2)
			}
			deg := g.Degree(u)
			off := g.offsetOf(u)
			for j := 0; j < deg && !t.full(); j++ {
				if (off+j)%elemsPerLine4B == 0 || j == 0 {
					t.access(pcNbr, arrNbrs.addr(off+j), mem.Load, 0, 1)
				}
				v := g.Nbr(u, j)
				t.access(pcDistLoad, arrDist.addr(v), mem.Load, 1, 1)
				if !visited.has(v) {
					stack = append(stack, v)
					t.access(pcFrontier, arrFront.addr(len(stack)), mem.Store, 0, 1)
				}
			}
		}
	}
}

// pagerank runs power iterations; every iteration repeats the same
// traversal order, the temporal prefetcher's best case.
func pagerank(g *Graph, t *tracer, _ uint64) {
	// Iterate over a bounded vertex window so whole iterations repeat
	// within the trace budget (the temporal pattern); gathers still
	// reach across the full graph through long-range edges.
	window := g.n
	if window > 1200 {
		window = 1200
	}
	for !t.full() {
		for u := 0; u < window && !t.full(); u++ {
			if u%elemsPerLine4B == 0 {
				t.access(pcOffsets, arrOffsets.addr(u), mem.Load, 0, 2)
			}
			deg := g.Degree(u)
			off := g.offsetOf(u)
			for j := 0; j < deg && !t.full(); j++ {
				if (off+j)%elemsPerLine4B == 0 || j == 0 {
					t.access(pcNbr, arrNbrs.addr(off+j), mem.Load, 0, 1)
				}
				v := g.Nbr(u, j)
				// rank_src[v]: indirect gather.
				t.access(pcRankLoad, arrRankSrc.addr(v), mem.Load, 1, 2)
			}
			t.access(pcRankStor, arrRankDst.addr(u), mem.Store, 0, 2)
		}
	}
}

// sssp runs Bellman-Ford-style relaxation rounds with edge weights.
func sssp(g *Graph, t *tracer, seed uint64) {
	rng := mem.NewPRNG(seed)
	_ = rng.Intn(2)
	window := g.n
	if window > 2600 {
		window = 2600
	}
	// Relaxation rounds repeat over a bounded vertex window, so the
	// gather order recurs — the temporal pattern.
	start := 0
	for !t.full() {
		for w := 0; w < window && !t.full(); w++ {
			u := start + w
			if u >= g.n {
				u -= g.n
			}
			if u%elemsPerLine4B == 0 {
				t.access(pcOffsets, arrOffsets.addr(u), mem.Load, 0, 2)
			}
			t.access(pcDistLoad, arrDist.addr(u), mem.Load, 0, 1)
			deg := g.Degree(u)
			off := g.offsetOf(u)
			for j := 0; j < deg && !t.full(); j++ {
				if (off+j)%elemsPerLine4B == 0 || j == 0 {
					t.access(pcNbr, arrNbrs.addr(off+j), mem.Load, 0, 1)
					t.access(pcWeight, arrWeights.addr(off+j), mem.Load, 0, 1)
				}
				v := g.Nbr(u, j)
				t.access(pcDistStor, arrDist.addr(v), mem.Load, 2, 1)
				if g.hash(uint64(u*31+j))&15 == 0 { // sparse relaxations
					t.access(pcDistStor, arrDist.addr(v), mem.Store, 0, 1)
				}
			}
		}
	}
}

// bc approximates Brandes betweenness centrality: forward BFS passes
// accumulating path counts, then backward dependency accumulation.
func bc(g *Graph, t *tracer, seed uint64) {
	visited := newVisitSet(g.n)
	var frontier, next, order []int // reused across levels and rounds
	rng := mem.NewPRNG(seed)
	sources := make([]int, 6)
	for i := range sources {
		sources[i] = rng.Intn(g.n)
	}
	for round := 0; !t.full(); round++ {
		clear(visited)
		src := sources[round%len(sources)]
		frontier = append(frontier[:0], src)
		visited.add(src)
		order = order[:0]
		for len(frontier) > 0 && !t.full() && len(order) <= 400 {
			next = next[:0]
			for _, u := range frontier {
				if t.full() || len(order) > 400 {
					break
				}
				order = append(order, u)
				if u%elemsPerLine4B == 0 {
					t.access(pcOffsets, arrOffsets.addr(u), mem.Load, 0, 2)
				}
				deg := g.Degree(u)
				off := g.offsetOf(u)
				for j := 0; j < deg && !t.full(); j++ {
					if (off+j)%elemsPerLine4B == 0 || j == 0 {
						t.access(pcNbr, arrNbrs.addr(off+j), mem.Load, 0, 1)
					}
					v := g.Nbr(u, j)
					t.access(pcSigma, arrSigma.addr(v), mem.Load, 1, 1)
					if !visited.has(v) {
						visited.add(v)
						t.access(pcSigma, arrSigma.addr(v), mem.Store, 0, 1)
						next = append(next, v)
					}
				}
			}
			frontier, next = next, frontier
		}
		// Backward accumulation in reverse BFS order (its own loop,
		// hence its own load PC).
		for i := len(order) - 1; i >= 0 && !t.full(); i-- {
			u := order[i]
			t.access(pcSigmaBack, arrSigma.addr(u), mem.Load, 0, 1)
			t.access(pcDistStor, arrDist.addr(u), mem.Store, 0, 2)
		}
	}
}

// --- workload catalog ---

// Workload is a named graph workload.
type Workload struct {
	// Name follows Figure 15: algorithm_nodes_param.
	Name string
	// Algorithm is bfs/dfs/bc/pagerank/sssp.
	Algorithm string
	// Nodes is the vertex count.
	Nodes int
	// Param is the second name component; for bc/bfs/sssp it is the
	// average degree, for pagerank and dfs it parameterizes the input
	// scale (degree is clamped to a practical range).
	Param int
}

// degree maps the name parameter to the average degree used.
func (w Workload) degree() int {
	d := w.Param
	if d < 2 {
		d = 2
	}
	if d > 32 {
		d = 32
	}
	return d
}

// Source returns a deterministic trace of up to records memory records. The
// algorithm runs once per workload and length while its packed trace stays
// in the packed-trace memo (mem.Traces); every call replays it.
func (w Workload) Source(records uint64) mem.Source {
	if records == 0 {
		records = DefaultRecords
	}
	key := fmt.Sprintf("graph:%+v@%d", w, records)
	p, err := mem.Traces.Do(context.Background(), key, func() (*mem.Packed, error) {
		return w.trace(int(records)), nil
	})
	if err != nil {
		panic(err) // only a panicking build fails; re-raise it
	}
	return p.Source()
}

// trace runs the workload's algorithm until it has recorded records
// accesses, and returns them packed.
func (w Workload) trace(records int) *mem.Packed {
	g := NewGraph(w.Nodes, w.degree(), uint64(w.Nodes)*37+uint64(w.Param))
	t := &tracer{pack: mem.NewPacker(), limit: records}
	seed := uint64(len(w.Name)) * 1009
	switch w.Algorithm {
	case "bfs":
		bfs(g, t, seed)
	case "dfs":
		dfs(g, t, seed)
	case "pagerank":
		pagerank(g, t, seed)
	case "sssp":
		sssp(g, t, seed)
	case "bc":
		bc(g, t, seed)
	default:
		panic(fmt.Sprintf("graphs: unknown algorithm %q", w.Algorithm))
	}
	return t.pack.Finish()
}

// DefaultRecords matches the SPEC-like workloads' trace length.
const DefaultRecords = 220_000

// CRONO returns the nine Figure 15 workloads.
func CRONO() []Workload {
	names := []string{
		"bc_40000_10",
		"bc_56384_8",
		"bfs_100000_16",
		"bfs_80000_8",
		"bfs_90000_10",
		"dfs_800000_800",
		"dfs_900000_400",
		"pagerank_100000_100",
		"sssp_100000_5",
	}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := Parse(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Parse decodes an algorithm_nodes_param workload name.
func Parse(name string) (Workload, error) {
	parts := strings.Split(name, "_")
	if len(parts) != 3 {
		return Workload{}, fmt.Errorf("graphs: bad workload name %q", name)
	}
	nodes, err1 := strconv.Atoi(parts[1])
	param, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || nodes <= 0 {
		return Workload{}, fmt.Errorf("graphs: bad workload name %q", name)
	}
	switch parts[0] {
	case "bfs", "dfs", "bc", "pagerank", "sssp":
	default:
		return Workload{}, fmt.Errorf("graphs: unknown algorithm %q", parts[0])
	}
	return Workload{Name: name, Algorithm: parts[0], Nodes: nodes, Param: param}, nil
}
