// Package workloads provides the synthetic SPEC-CPU-like irregular
// workloads of the evaluation. Real SPEC traces are not redistributable, so
// each workload is a parameterized generator reproducing the memory-access
// *character* the paper's results depend on: pointer chasing, interleaved
// useful/useless temporal patterns, multi-path Markov sequences, computed
// (non-stride) prefetch kernels, metadata footprints above and below the
// 1MB table, and bandwidth sensitivity.
//
// A workload is a weighted interleaving of pattern streams. Every stream
// owns one instruction PC and one address region, so per-PC training in the
// prefetchers sees exactly the stream's pattern, and profile-guided hints
// attach to meaningful instructions. All randomness is seeded; the same
// workload name always produces bit-identical traces.
package workloads

import (
	"fmt"
	"math"

	"prophet/internal/mem"
	"prophet/internal/recycle"
)

// PatternKind classifies a stream's access pattern.
type PatternKind uint8

const (
	// Temporal is a repeating irregular sequence of lines — the solvable
	// temporal pattern hardware prefetchers target.
	Temporal PatternKind = iota
	// NoisyTemporal interleaves a temporal sequence with same-PC random
	// accesses: Figure 1's blue/red interleaving that defeats PatternConf.
	NoisyTemporal
	// PointerChase is a repeating traversal whose loads serialize
	// (Dep = previous record of the stream): linked structures.
	PointerChase
	// IndirectStride is a[b[i]] with a strided index kernel: the RPG2-
	// friendly pattern dominating CRONO-style code.
	IndirectStride
	// IndirectComputed is a[f(i)] with a non-stride, data-dependent
	// kernel (mcf's pattern): temporal-solvable, RPG2-unsolvable.
	IndirectComputed
	// RandomAccess has no pattern at all: prefetching it only wastes
	// bandwidth and metadata (the EL_ACC filter's target).
	RandomAccess
	// MultiPath is a temporal sequence where branch points alternate
	// between successors across passes — multiple Markov targets
	// (Section 4.5, Figure 8).
	MultiPath
	// StreamScan is a sequential sweep the L1 stride prefetcher covers.
	StreamScan
)

// String names the pattern.
func (k PatternKind) String() string {
	switch k {
	case Temporal:
		return "temporal"
	case NoisyTemporal:
		return "noisy-temporal"
	case PointerChase:
		return "pointer-chase"
	case IndirectStride:
		return "indirect-stride"
	case IndirectComputed:
		return "indirect-computed"
	case RandomAccess:
		return "random"
	case MultiPath:
		return "multi-path"
	case StreamScan:
		return "stream"
	}
	return fmt.Sprintf("PatternKind(%d)", uint8(k))
}

// PatternSpec describes one stream of a workload.
type PatternSpec struct {
	// Kind selects the pattern.
	Kind PatternKind
	// Weight is the stream's share of memory records.
	Weight float64
	// SeqLines is the temporal sequence length in lines (patterns with a
	// sequence); also the index-array length for indirect kinds.
	SeqLines int
	// NoiseRatio is the same-PC random-access fraction (NoisyTemporal).
	NoiseRatio float64
	// Paths is the successor count at branch points (MultiPath).
	Paths int
	// Gap is the non-memory instruction count between accesses.
	Gap int
	// StoreRatio is the fraction of accesses that are stores.
	StoreRatio float64
	// PCSeed differentiates otherwise-identical streams; streams with
	// equal PCSeed across workload variants share PC and region (the
	// "Load A/E" sharing of Figure 7). 0 derives it from position.
	PCSeed uint64
	// SeqSeed seeds sequence generation; equal seeds give identical
	// sequences (hint transfer across inputs). 0 derives from PCSeed.
	SeqSeed uint64
	// Serial forces address dependence on the stream's previous record
	// even for kinds that are not inherently chained (e.g. MultiPath
	// pivot chains): the core then serializes the stream's misses.
	Serial bool
	// Clones expands the spec into this many independent streams with
	// distinct PCs and regions, splitting Weight evenly (0/1 = one).
	// Clone PCs derive deterministically from PCSeed, so cloned streams
	// still share hints across workload variants.
	Clones int
}

// Spec is a complete workload description.
type Spec struct {
	// Name identifies the workload ("mcf", "gcc_166", ...).
	Name string
	// Seed drives the interleaving schedule.
	Seed uint64
	// Patterns are the component streams.
	Patterns []PatternSpec
	// Records is the default trace length in memory records.
	Records uint64
}

// pcFor derives the stream's instruction address from its seed.
func pcFor(seed uint64) mem.Addr { return mem.Addr(0x400000 + seed*0x40) }

// regionFor derives the stream's address-region base line from its seed.
// Regions are 1M lines (64MB) apart, far larger than any stream needs.
func regionFor(seed uint64) mem.Line { return mem.Line(1<<24 + seed*(1<<20)) }

// stream is the per-pattern generator state. Its sequences hold line
// offsets from region, carved from the generator's recycled buffer.
type stream struct {
	spec   PatternSpec
	pc     mem.Addr
	region mem.Line
	rng    *mem.PRNG

	seq []uint32 // temporal order (Temporal/Noisy/Pointer/MultiPath)
	pos int
	// MultiPath branch variants: variants[p*branches+b] is the offset
	// used at branch b on passes where pass%paths == p.
	variants []uint32
	paths    int
	branches int
	pass     int
	// Indirect kinds.
	idx        []uint32 // index-array values (line offsets into the region)
	iter       int
	kernelPC   mem.Addr
	kernelBase mem.Line
	emitData   bool
}

const (
	// kernelElemsPerLine: 8 8-byte indices per 64B line, so the kernel PC
	// touches a new line every 8 iterations (a 12.5%+ miss ratio, enough
	// to qualify for RPG2).
	kernelElemsPerLine = 8
	// branchEvery: MultiPath sequences branch at every 4th element.
	branchEvery = 4
	// noiseSpanLines: the region span used for noise/random accesses.
	noiseSpanLines = 1 << 19 // 32MB of lines
)

// seqLines is the stream's sequence (or index-array) length.
func seqLines(sp PatternSpec) int {
	if sp.SeqLines <= 0 {
		return 1024
	}
	return sp.SeqLines
}

// multiPaths is a MultiPath stream's successor count at branch points.
func multiPaths(sp PatternSpec) int { return max(sp.Paths, 2) }

// streamWords is the number of buffer words newStream carves for sp.
func streamWords(sp PatternSpec) int {
	n := seqLines(sp)
	switch sp.Kind {
	case Temporal, NoisyTemporal, PointerChase, IndirectStride, IndirectComputed:
		return n
	case MultiPath:
		return n + multiPaths(sp)*(n/branchEvery)
	}
	return 0
}

// catalogWords is the most buffer words a catalog workload's generator
// carves, gcc_g23's (TestCatalogWords keeps it so). A fresh generator buffer
// holds at least that many, so a process that generates catalog workloads
// in any order allocates one buffer per generator live at once, not one
// each time a larger spec comes along.
const catalogWords = 73_200

// newStream builds the per-pattern state in words, streamWords(sp) words of
// the generator's buffer, whose old contents it overwrites. sp.PCSeed is
// always non-zero here (NewGenerator's clone expansion derives missing
// seeds); regionSeed is the stream's collision-free region slot assigned by
// NewGenerator.
func newStream(sp PatternSpec, regionSeed uint64, words []uint32) *stream {
	pcSeed := sp.PCSeed
	seqSeed := sp.SeqSeed
	if seqSeed == 0 {
		seqSeed = pcSeed
	}
	s := &stream{
		spec:   sp,
		pc:     pcFor(pcSeed),
		region: regionFor(regionSeed),
		rng:    mem.NewPRNG(seqSeed*0x9e37 + 17),
	}
	n := seqLines(sp)
	switch sp.Kind {
	case Temporal, NoisyTemporal, PointerChase:
		s.seq = words
		permuteOffsets(s.seq, mem.NewPRNG(seqSeed))
	case MultiPath:
		s.seq = words[:n]
		permuteOffsets(s.seq, mem.NewPRNG(seqSeed))
		s.paths = multiPaths(sp)
		s.branches = n / branchEvery
		s.variants = words[n:]
		vr := mem.NewPRNG(seqSeed + 7)
		for p := range s.paths {
			for b := range s.branches {
				if p == 0 {
					// Path 0 keeps the base sequence line.
					s.variants[b] = s.seq[b*branchEvery+branchEvery-1]
				} else {
					s.variants[p*s.branches+b] = uint32(n + vr.Intn(n))
				}
			}
		}
	case IndirectStride, IndirectComputed:
		s.idx = words
		ir := mem.NewPRNG(seqSeed + 3)
		for i := range s.idx {
			s.idx[i] = uint32(ir.Intn(n))
		}
		s.kernelPC = s.pc + 8
		s.kernelBase = s.region + mem.Line(2*n)
	}
	return s
}

// permuteOffsets fills out with a deterministic pseudo-random visit order
// over the offsets 0..len(out)-1: the Fisher–Yates swaps of mem.PRNG.Perm,
// run on the offsets themselves so no []int permutation is built.
func permuteOffsets(out []uint32, rng *mem.PRNG) {
	for i := range out {
		out[i] = uint32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// emit writes the stream's next access into a, whose Dep it zeroes. serial
// reports whether the record depends on the stream's previous record.
func (s *stream) emit(a *mem.Access) (serial bool) {
	sp := &s.spec
	kind := mem.Load
	if sp.StoreRatio > 0 && s.rng.Float64() < sp.StoreRatio {
		kind = mem.Store
	}
	gap := sp.Gap
	if gap > 0 {
		gap += s.rng.Intn(3)
	}
	// Gap is a uint16 on the wire: clamp instead of wrapping, so an
	// oversized spec Gap (or Gap+jitter crossing 65535) saturates rather
	// than silently producing a tiny gap.
	if gap > math.MaxUint16 {
		gap = math.MaxUint16
	} else if gap < 0 {
		gap = 0
	}
	*a = mem.Access{PC: s.pc, Kind: kind, Gap: uint16(gap)}

	switch sp.Kind {
	case Temporal, NoisyTemporal:
		if sp.NoiseRatio > 0 && s.rng.Float64() < sp.NoiseRatio {
			a.Addr = (s.region + mem.Line(len(s.seq)*2+s.rng.Intn(noiseSpanLines))).Addr()
			return sp.Serial
		}
		a.Addr = (s.region + mem.Line(s.seq[s.pos])).Addr()
		s.advance()
		return sp.Serial
	case PointerChase:
		a.Addr = (s.region + mem.Line(s.seq[s.pos])).Addr()
		s.advance()
		if sp.NoiseRatio > 0 && s.rng.Float64() < sp.NoiseRatio {
			a.Addr = (s.region + mem.Line(len(s.seq)*2+s.rng.Intn(noiseSpanLines))).Addr()
		}
		return true
	case MultiPath:
		off := s.seq[s.pos]
		if (s.pos+1)%branchEvery == 0 {
			b := s.pos / branchEvery
			p := (s.pass + b) % s.paths
			off = s.variants[p*s.branches+b]
		}
		a.Addr = (s.region + mem.Line(off)).Addr()
		s.advance()
		return sp.Serial
	case IndirectStride:
		if s.emitData {
			s.emitData = false
			a.Addr = (s.region + mem.Line(s.idx[s.iter%len(s.idx)])).Addr()
			s.iter++
			return true // a[b[i]] depends on the kernel load
		}
		s.emitData = true
		a.PC = s.kernelPC
		a.Addr = (s.kernelBase + mem.Line(s.iter/kernelElemsPerLine)).Addr()
		if s.iter/kernelElemsPerLine >= 1<<18 {
			s.iter = 0 // wrap the kernel sweep
		}
		return false
	case IndirectComputed:
		if s.emitData {
			s.emitData = false
			a.Addr = (s.region + mem.Line(s.idx[s.iter%len(s.idx)])).Addr()
			s.iter++
			return true
		}
		s.emitData = true
		a.PC = s.kernelPC
		// Computed kernel: the kernel address itself hops irregularly
		// (multi-step arithmetic in mcf), so neither stride prefetcher
		// nor RPG2 can cover it — but the hop order repeats, so
		// temporal prefetching can.
		a.Addr = (s.kernelBase + mem.Line(s.idx[(s.iter*7+3)%len(s.idx)])).Addr()
		return true
	case RandomAccess:
		a.Addr = (s.region + mem.Line(s.rng.Intn(noiseSpanLines))).Addr()
		return false
	case StreamScan:
		wrap := sp.SeqLines
		if wrap <= 0 {
			wrap = 1 << 18
		}
		a.Addr = (s.region + mem.Line(s.pos)).Addr()
		s.pos = (s.pos + 1) % wrap
		return false
	}
	a.Addr = s.region.Addr()
	return false
}

func (s *stream) advance() {
	s.pos++
	if s.pos >= len(s.seq) {
		s.pos = 0
		s.pass++
	}
}

// Generator interleaves a workload's streams into one trace. Its streams'
// sequences share one buffer, which a drained generator hands to the next
// one built.
type Generator struct {
	buf     *genBuffer
	streams []*stream
	cum     []float64 // cumulative weights for stream selection
	rng     *mem.PRNG
	lastIdx []uint64 // global record index of each stream's last record
	count   uint64
	limit   uint64
}

// genBuffer is a generator's stream storage: every sequence, branch
// variant and index array, carved from one slice.
type genBuffer struct {
	words []uint32
	rc    recycle.Slot
}

// genBuffers recycles drained generators' buffers.
var genBuffers = recycle.New(func() *genBuffer { return &genBuffer{} },
	func(b *genBuffer) *recycle.Slot { return &b.rc })

// regionSlots is the number of distinct address regions; region assignment
// hashes pcSeed into this space and rehashes on collision.
const regionSlots = 4096

// NewGenerator builds a deterministic trace source for spec, producing
// records memory records (spec.Records when records == 0).
//
// Invalid specs panic with a descriptive message rather than silently
// corrupting traces: a spec with no patterns, a negative/NaN/Inf weight, or
// a zero total weight would otherwise yield NaN cumulative weights that pin
// every record to the last stream.
func NewGenerator(spec Spec, records uint64) *Generator {
	if len(spec.Patterns) == 0 {
		panic(fmt.Sprintf("workloads: spec %q has no patterns", spec.Name))
	}
	if records == 0 {
		records = spec.Records
	}
	g := &Generator{
		rng:   mem.NewPRNG(spec.Seed),
		limit: records,
	}
	expanded := make([]PatternSpec, 0, len(spec.Patterns))
	for i, p := range spec.Patterns {
		if p.Weight < 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
			panic(fmt.Sprintf("workloads: spec %q pattern %d (%s) has invalid weight %v",
				spec.Name, i, p.Kind, p.Weight))
		}
		if p.SeqLines > math.MaxUint32/2 {
			panic(fmt.Sprintf("workloads: spec %q pattern %d (%s) has %d SeqLines, more than a stream's uint32 offsets span",
				spec.Name, i, p.Kind, p.SeqLines))
		}
		n := p.Clones
		if n < 1 {
			n = 1
		}
		base := p.PCSeed
		if base == 0 {
			base = spec.Seed*131 + uint64(i) + 1
		}
		for c := 0; c < n; c++ {
			cp := p
			cp.Weight = p.Weight / float64(n)
			cp.PCSeed = base + uint64(c)*7001
			if p.SeqSeed != 0 {
				cp.SeqSeed = p.SeqSeed + uint64(c)*7001
			}
			expanded = append(expanded, cp)
		}
	}
	if len(expanded) > regionSlots {
		panic(fmt.Sprintf("workloads: spec %q expands to %d streams, more than the %d address regions",
			spec.Name, len(expanded), regionSlots))
	}
	g.lastIdx = make([]uint64, len(expanded))
	total := 0.0
	for _, p := range expanded {
		total += p.Weight
	}
	if !(total > 0) {
		panic(fmt.Sprintf("workloads: spec %q has zero total pattern weight", spec.Name))
	}
	// Region assignment: each stream wants slot pcSeed % regionSlots. Two
	// streams whose pcSeeds differ by a multiple of regionSlots (reachable
	// via the 7001 clone offset) would silently share an address region
	// while keeping distinct PCs, corrupting per-stream pattern isolation.
	// Two passes keep the fix strictly additive: every stream first claims
	// its natural slot (first claimant wins; streams with an identical full
	// pcSeed intentionally share PC and region), then true colliders — and
	// only colliders — probe linearly into slots no stream naturally owns.
	// Non-colliding streams therefore always keep their historical region,
	// whatever their construction order, so existing catalog traces (golden
	// fixtures) are unchanged.
	owner := make(map[uint64]uint64, len(expanded)) // region slot -> full pcSeed
	for _, p := range expanded {
		if _, taken := owner[p.PCSeed%regionSlots]; !taken {
			owner[p.PCSeed%regionSlots] = p.PCSeed
		}
	}
	words := 0
	for _, p := range expanded {
		words += streamWords(p)
	}
	g.buf = genBuffers.Get()
	if cap(g.buf.words) < words {
		g.buf.words = make([]uint32, max(words, catalogWords))
	}
	free := g.buf.words[:words]
	acc := 0.0
	for _, p := range expanded {
		slot := p.PCSeed % regionSlots
		if owner[slot] != p.PCSeed { // collider: probe past every claimed slot
			for {
				slot = (slot + 1) % regionSlots
				o, taken := owner[slot]
				if !taken || o == p.PCSeed {
					break
				}
			}
			owner[slot] = p.PCSeed
		}
		w := streamWords(p)
		g.streams = append(g.streams, newStream(p, slot, free[:w:w]))
		free = free[w:]
		acc += p.Weight / total
		g.cum = append(g.cum, acc)
	}
	return g
}

// Next implements mem.Source. The call that finds the generator drained
// releases its buffer.
func (g *Generator) Next() (mem.Access, bool) {
	if g.count >= g.limit {
		g.release()
		return mem.Access{}, false
	}
	var a mem.Access
	g.record(&a)
	return a, true
}

// NextBlock implements mem.BlockSource, generating up to len(buf) records
// into buf. The block that drains the generator releases its buffer.
func (g *Generator) NextBlock(buf []mem.Access) []mem.Access {
	buf = buf[:min(uint64(len(buf)), g.limit-g.count)]
	for i := range buf {
		g.record(&buf[i])
	}
	if g.count >= g.limit {
		g.release()
	}
	return buf
}

// record generates the next record into a; the caller checks the limit.
func (g *Generator) record(a *mem.Access) {
	r := g.rng.Float64()
	idx := len(g.streams) - 1
	for i, c := range g.cum {
		if r < c {
			idx = i
			break
		}
	}
	serial := g.streams[idx].emit(a)
	g.count++
	if serial && g.lastIdx[idx] > 0 {
		dep := g.count - g.lastIdx[idx]
		if dep > 4096 {
			dep = 0 // too far back to matter; treat as independent
		}
		a.Dep = uint32(dep)
	}
	g.lastIdx[idx] = g.count
}

// release hands the generator's buffer to the next generator built. The
// streams that index it go with it.
func (g *Generator) release() {
	if g.buf != nil {
		genBuffers.Put(g.buf)
		g.buf, g.streams = nil, nil
	}
}

// Len implements mem.Sized: the exact number of records still to come, so
// mem.Materialize allocates a generated trace once.
func (g *Generator) Len() int { return int(g.limit - g.count) }

var _ mem.Sized = (*Generator)(nil)
var _ mem.BlockSource = (*Generator)(nil)
