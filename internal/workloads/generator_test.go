// Regression tests for the generator's construction-time validation and
// stream isolation: zero/NaN weights, empty patterns, region-collision
// rehashing, clone seed derivation, and Gap saturation.
package workloads

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"prophet/internal/mem"
)

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func TestEmptyPatternsPanics(t *testing.T) {
	mustPanic(t, "has no patterns", func() {
		NewGenerator(Spec{Name: "empty", Seed: 1, Records: 100}, 0)
	})
}

func TestZeroTotalWeightPanics(t *testing.T) {
	mustPanic(t, "zero total pattern weight", func() {
		NewGenerator(Spec{Name: "zw", Seed: 1, Records: 100, Patterns: []PatternSpec{
			{Kind: Temporal, Weight: 0, SeqLines: 64},
			{Kind: RandomAccess, Weight: 0},
		}}, 0)
	})
}

func TestNaNWeightPanics(t *testing.T) {
	mustPanic(t, "invalid weight", func() {
		NewGenerator(Spec{Name: "nan", Seed: 1, Records: 100, Patterns: []PatternSpec{
			{Kind: Temporal, Weight: math.NaN(), SeqLines: 64},
			{Kind: RandomAccess, Weight: 1},
		}}, 0)
	})
}

func TestNegativeWeightPanics(t *testing.T) {
	mustPanic(t, "invalid weight", func() {
		NewGenerator(Spec{Name: "neg", Seed: 1, Records: 100, Patterns: []PatternSpec{
			{Kind: Temporal, Weight: -0.5, SeqLines: 64},
			{Kind: RandomAccess, Weight: 1.5},
		}}, 0)
	})
}

func TestInfWeightPanics(t *testing.T) {
	mustPanic(t, "invalid weight", func() {
		NewGenerator(Spec{Name: "inf", Seed: 1, Records: 100, Patterns: []PatternSpec{
			{Kind: Temporal, Weight: math.Inf(1), SeqLines: 64},
		}}, 0)
	})
}

// regionsByPC replays a trace and groups the 64MB-region index of every
// non-noise line by PC. Temporal streams without noise touch only their own
// region, so disjoint region sets prove stream isolation.
func regionsByPC(src mem.Source) map[mem.Addr]map[mem.Line]bool {
	out := map[mem.Addr]map[mem.Line]bool{}
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if out[a.PC] == nil {
			out[a.PC] = map[mem.Line]bool{}
		}
		out[a.PC][a.Line()>>20] = true
	}
	return out
}

// Streams whose pcSeeds differ by a multiple of 4096 — reachable through the
// 7001 clone offset — must not share an address region. PCSeed 630 with
// Clones 2 yields a clone at seed 7631; 7631 % 4096 == 3535, colliding with
// an explicit PCSeed 3535 stream.
func TestRegionCollisionRehashed(t *testing.T) {
	w := spec("collide", 11,
		PatternSpec{Kind: Temporal, Weight: 0.5, SeqLines: 128, Clones: 2, PCSeed: 630},
		PatternSpec{Kind: Temporal, Weight: 0.5, SeqLines: 128, PCSeed: 3535},
	)
	regions := regionsByPC(w.Source(6000))
	if len(regions) != 3 {
		t.Fatalf("got %d PCs, want 3", len(regions))
	}
	assertDisjointRegions(t, regions)

	// The direct form: two plain streams 4096 apart.
	w2 := spec("collide2", 12,
		PatternSpec{Kind: Temporal, Weight: 0.5, SeqLines: 128, PCSeed: 100},
		PatternSpec{Kind: Temporal, Weight: 0.5, SeqLines: 128, PCSeed: 100 + 4096},
	)
	regions2 := regionsByPC(w2.Source(4000))
	if len(regions2) != 2 {
		t.Fatalf("got %d PCs, want 2", len(regions2))
	}
	assertDisjointRegions(t, regions2)
}

func assertDisjointRegions(t *testing.T, regions map[mem.Addr]map[mem.Line]bool) {
	t.Helper()
	seen := map[mem.Line]mem.Addr{}
	for pc, rs := range regions {
		for r := range rs {
			if prev, ok := seen[r]; ok && prev != pc {
				t.Fatalf("region %#x shared by PCs %#x and %#x", r, prev, pc)
			}
			seen[r] = pc
		}
	}
}

// Non-colliding streams must keep their historical region (pcSeed % 4096):
// the rehash is strictly additive, so golden fixtures stay valid.
func TestNonCollidingRegionsUnchanged(t *testing.T) {
	w := spec("plain", 13,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, PCSeed: 777},
	)
	regions := regionsByPC(w.Source(500))
	rs := regions[pcFor(777)]
	if len(rs) != 1 || !rs[regionFor(777)>>20] {
		t.Fatalf("stream with PCSeed 777 left region %v, want {%#x}", rs, regionFor(777)>>20)
	}
}

// A rehashed collider must never displace a later stream from its natural
// slot: with pcSeeds [100, 4196, 101], the 4196 collider has to probe past
// slot 101 (naturally owned by the third stream) rather than claim it.
func TestColliderDoesNotDisplaceLaterStream(t *testing.T) {
	w := spec("disp", 18,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, PCSeed: 100},
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, PCSeed: 100 + 4096},
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, PCSeed: 101},
	)
	regions := regionsByPC(w.Source(6000))
	if rs := regions[pcFor(100)]; !rs[regionFor(100)>>20] {
		t.Fatalf("PCSeed 100 lost its natural region: %v", rs)
	}
	if rs := regions[pcFor(101)]; !rs[regionFor(101)>>20] {
		t.Fatalf("PCSeed 101 displaced from its natural region by the collider: %v", rs)
	}
	if rs := regions[pcFor(100+4096)]; rs[regionFor(100)>>20] || rs[regionFor(101)>>20] {
		t.Fatalf("collider landed on a naturally owned region: %v", rs)
	}
	assertDisjointRegions(t, regions)
}

// Clones with an explicit SeqSeed derive per-clone sequence seeds, so each
// clone walks its own sequence over its own region.
func TestCloneSeedDerivation(t *testing.T) {
	w := spec("clseed", 14,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, Clones: 2, PCSeed: 900, SeqSeed: 800},
	)
	recs := mem.Collect(w.Source(4000), 0)
	byPC := map[mem.Addr][]mem.Line{}
	for _, r := range recs {
		byPC[r.PC] = append(byPC[r.PC], r.Line())
	}
	if len(byPC) != 2 {
		t.Fatalf("got %d PCs, want 2", len(byPC))
	}
	if _, ok := byPC[pcFor(900)]; !ok {
		t.Fatal("base clone PC missing")
	}
	if _, ok := byPC[pcFor(900+7001)]; !ok {
		t.Fatal("derived clone PC missing (PCSeed + 7001)")
	}
	// The clones must not visit any common line: distinct regions.
	assertDisjointRegions(t, regionsByPC(w.Source(4000)))
}

func TestGapClampInsteadOfWrap(t *testing.T) {
	w := spec("bigGap", 15,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, Gap: 70_000},
	)
	recs := mem.Collect(w.Source(200), 0)
	for i, r := range recs {
		if r.Gap != math.MaxUint16 {
			t.Fatalf("record %d Gap = %d, want clamp to %d (uint16 wrap?)", i, r.Gap, math.MaxUint16)
		}
	}

	neg := spec("negGap", 16,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, Gap: -3},
	)
	for _, r := range mem.Collect(neg.Source(200), 0) {
		if r.Gap != 0 {
			t.Fatalf("negative Gap produced %d, want 0", r.Gap)
		}
	}
}

// A weighted mix with one zero-weight stream is fine as long as the total is
// positive — the zero-weight stream simply never emits.
func TestZeroWeightStreamNeverEmits(t *testing.T) {
	w := spec("mix", 17,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 64, PCSeed: 40},
		PatternSpec{Kind: RandomAccess, Weight: 0, PCSeed: 41},
	)
	for _, r := range mem.Collect(w.Source(2000), 0) {
		if r.PC == pcFor(41) {
			t.Fatal("zero-weight stream emitted a record")
		}
	}
}

// TestMaterializeGeneratorAllocatesOnce: a Generator knows its exact length,
// so mem.Materialize collects it in one allocation with no spare capacity,
// and a Limit over it stays exact.
func TestMaterializeGeneratorAllocatesOnce(t *testing.T) {
	const records = 20_000
	w, _ := Get("mcf")
	gens := make([]*Generator, 6)
	for i := range gens {
		gens[i] = NewGenerator(w.Spec, records)
	}
	var recs []mem.Access
	// A first GC cycle starts the runtime's mark workers, allocations that
	// AllocsPerRun would count against Materialize when one of its
	// 20,000-record slices triggers that cycle; run it beforehand.
	runtime.GC()
	allocs := testing.AllocsPerRun(len(gens)-1, func() {
		recs = mem.Materialize(gens[0])
		gens = gens[1:]
	})
	if allocs != 1 {
		t.Fatalf("Materialize(Generator) made %v allocations, want 1", allocs)
	}
	if len(recs) != records || cap(recs) != len(recs) {
		t.Fatalf("Materialize(Generator): len %d cap %d, want %d", len(recs), cap(recs), records)
	}
	lim := mem.Materialize(mem.Limit(NewGenerator(w.Spec, records), 5000))
	if len(lim) != 5000 || cap(lim) != 5000 {
		t.Fatalf("Materialize(Limit(Generator, 5000)): len %d cap %d", len(lim), cap(lim))
	}
	for i := range lim {
		if lim[i] != recs[i] {
			t.Fatalf("limited record %d = %+v, want %+v", i, lim[i], recs[i])
		}
	}
}

// TestPermutedLinesMatchesPerm: permuteOffsets runs Perm's swaps on the
// offsets in place, so every visit order (region + offset), and the
// generator state it leaves, equals the Perm-based construction it
// replaced, and with them every generated trace.
func TestPermutedLinesMatchesPerm(t *testing.T) {
	const base = mem.Line(1 << 20)
	for _, n := range []int{0, 1, 2, 3, 17, 256, 4099} {
		for seed := uint64(1); seed <= 4; seed++ {
			ref, rng := mem.NewPRNG(seed), mem.NewPRNG(seed)
			perm := ref.Perm(n)
			want := make([]mem.Line, n)
			for i, p := range perm {
				want[i] = base + mem.Line(p)
			}
			got := make([]uint32, n)
			permuteOffsets(got, rng)
			if rng.Uint64() != ref.Uint64() {
				t.Fatalf("n=%d seed=%d: the generator's stream diverges after the permutation", n, seed)
			}
			for i := range want {
				if line := base + mem.Line(got[i]); line != want[i] {
					t.Fatalf("n=%d seed=%d: line %d = %d, Perm order gives %d", n, seed, i, line, want[i])
				}
			}
		}
	}
}

// recycleWorkloads is every catalog workload plus one spec with every
// pattern kind, IndirectStride (in no catalog workload) and a MultiPath
// stream of 3 paths included.
func recycleWorkloads() []Workload {
	return append(All(), spec("every-kind", 19,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 700, PCSeed: 50},
		PatternSpec{Kind: NoisyTemporal, Weight: 1, SeqLines: 500, NoiseRatio: 0.3, PCSeed: 51},
		PatternSpec{Kind: PointerChase, Weight: 1, SeqLines: 900, PCSeed: 52},
		PatternSpec{Kind: IndirectStride, Weight: 1, SeqLines: 400, PCSeed: 53},
		PatternSpec{Kind: IndirectComputed, Weight: 1, SeqLines: 300, PCSeed: 54},
		PatternSpec{Kind: RandomAccess, Weight: 1, PCSeed: 55},
		PatternSpec{Kind: MultiPath, Weight: 1, SeqLines: 603, Paths: 3, PCSeed: 56},
		PatternSpec{Kind: StreamScan, Weight: 1, SeqLines: 100, PCSeed: 57},
	))
}

// freshTraces generates each workload's first records from generators
// built on fresh storage: every released buffer is claimed first, and the
// generators are all built before any is drained.
func freshTraces(ws []Workload, records uint64) [][]mem.Access {
	for genBuffers.Get().words != nil {
	}
	gens := make([]*Generator, len(ws))
	for i, w := range ws {
		gens[i] = NewGenerator(w.Spec, records)
	}
	out := make([][]mem.Access, len(ws))
	for i, g := range gens {
		out[i] = mem.Materialize(g)
	}
	return out
}

// TestRecycledGeneratorsMatchFresh: a drained generator hands its buffer
// to the next one built, and generators on recycled (dirty, differently
// sized) buffers emit exactly the records of fresh ones.
func TestRecycledGeneratorsMatchFresh(t *testing.T) {
	const records = 20_000
	ws := recycleWorkloads()
	want := freshTraces(ws, records)

	a := NewGenerator(ws[0].Spec, records)
	buf := a.buf
	mem.Materialize(a)
	if a.buf != nil || a.streams != nil {
		t.Fatal("a drained generator kept its buffer")
	}
	if b := NewGenerator(ws[1].Spec, records); b.buf != buf {
		t.Fatal("the drained generator's buffer was not reused")
	}

	for i := len(ws) - 1; i >= 0; i-- { // reverse order: each reuses another workload's buffer
		got := mem.Materialize(NewGenerator(ws[i].Spec, records))
		if !slices.Equal(got, want[i]) {
			t.Fatalf("%s: a generator on a recycled buffer diverged from a fresh one", ws[i].Name)
		}
	}
}

// TestRecycledGeneratorsConcurrent: generators recycling one another's
// buffers from several goroutines at once (as concurrent sweep workers
// do) emit exactly the records of fresh ones. Run under -race.
func TestRecycledGeneratorsConcurrent(t *testing.T) {
	const records = 10_000
	ws := recycleWorkloads()
	want := freshTraces(ws, records)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(ws) {
				i := (k*(g+1) + g) % len(ws)
				if got := mem.Materialize(NewGenerator(ws[i].Spec, records)); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d: %s diverged from a fresh generator", g, ws[i].Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// blockTrace drains g through NextBlock in blocks of n records, checking
// that each block holds n records until the last.
func blockTrace(t *testing.T, g *Generator, n int) []mem.Access {
	t.Helper()
	var out []mem.Access
	buf := make([]mem.Access, n)
	for {
		blk := g.NextBlock(buf)
		if len(blk) == 0 {
			return out
		}
		if len(blk) < n && g.Len() != 0 {
			t.Fatalf("a short block of %d records with %d left", len(blk), g.Len())
		}
		out = append(out, blk...)
	}
}

// TestGeneratorBlockMatchesNext: NextBlock generates exactly the records
// Next does, at every block size and interleaved with Next, and both
// report exhaustion at the same record. The block that drains a generator
// releases its buffer.
func TestGeneratorBlockMatchesNext(t *testing.T) {
	const records = 10_000
	for _, w := range recycleWorkloads() {
		var want []mem.Access
		g := NewGenerator(w.Spec, records)
		for a, ok := g.Next(); ok; a, ok = g.Next() {
			want = append(want, a)
		}
		if len(want) != records {
			t.Fatalf("%s: Next gave %d records, want %d", w.Name, len(want), records)
		}
		check := func(how string, g *Generator, got []mem.Access) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s: %d records differ from Next's %d", w.Name, how, len(got), len(want))
			}
			if g.buf != nil {
				t.Fatalf("%s %s: a drained generator kept its buffer", w.Name, how)
			}
			if a, ok := g.Next(); ok || len(g.NextBlock(make([]mem.Access, 8))) != 0 {
				t.Fatalf("%s %s: the generator went on past its last record (%+v)", w.Name, how, a)
			}
		}
		for _, n := range []int{1, 7, 4096} {
			g := NewGenerator(w.Spec, records)
			check(fmt.Sprintf("blocks of %d", n), g, blockTrace(t, g, n))
		}
		g = NewGenerator(w.Spec, records)
		var got []mem.Access
		buf := make([]mem.Access, 64)
		for k := 0; ; k++ {
			if k%2 == 0 {
				a, ok := g.Next()
				if !ok {
					break
				}
				got = append(got, a)
				continue
			}
			blk := g.NextBlock(buf[:1+k%64])
			if len(blk) == 0 {
				break
			}
			got = append(got, blk...)
		}
		check("interleaved", g, got)
	}
}

// TestCatalogWords: catalogWords is the largest buffer a catalog workload's
// generator carves, so one fresh buffer fits any catalog workload.
func TestCatalogWords(t *testing.T) {
	most := 0
	for _, w := range All() {
		words := 0
		for _, p := range w.Spec.Patterns {
			words += streamWords(p) * max(p.Clones, 1)
		}
		most = max(most, words)
	}
	if most != catalogWords {
		t.Fatalf("the largest catalog spec takes %d words; catalogWords is %d", most, catalogWords)
	}
}
