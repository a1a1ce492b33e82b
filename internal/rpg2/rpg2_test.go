package rpg2

import (
	"testing"

	"prophet/internal/mem"
)

func TestKernelIdentificationStride(t *testing.T) {
	p := NewProfiler()
	pc := mem.Addr(0x400)
	for i := 0; i < 200; i++ {
		p.Observe(pc, mem.Line(i*2), true) // stride 2, all misses
	}
	ks := p.Kernels(DefaultProfileParams())
	if len(ks) != 1 {
		t.Fatalf("kernels = %v, want one", ks)
	}
	if ks[0].PC != pc || ks[0].StrideLine != 2 {
		t.Fatalf("kernel = %+v", ks[0])
	}
	if ks[0].MissRatio != 1.0 {
		t.Fatalf("miss ratio = %v", ks[0].MissRatio)
	}
}

func TestKernelRejectsLowMissRatio(t *testing.T) {
	p := NewProfiler()
	pc := mem.Addr(0x400)
	for i := 0; i < 200; i++ {
		p.Observe(pc, mem.Line(i), i%20 == 0) // 5% misses
	}
	if ks := p.Kernels(DefaultProfileParams()); len(ks) != 0 {
		t.Fatalf("low-miss PC qualified: %v", ks)
	}
}

func TestKernelRejectsIrregular(t *testing.T) {
	p := NewProfiler()
	pc := mem.Addr(0x500)
	rng := mem.NewPRNG(7)
	for i := 0; i < 500; i++ {
		p.Observe(pc, mem.Line(rng.Intn(1<<20)), true)
	}
	if ks := p.Kernels(DefaultProfileParams()); len(ks) != 0 {
		t.Fatalf("pointer-chase-like PC qualified: %v", ks)
	}
}

func TestKernelRejectsTooFewAccesses(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 10; i++ {
		p.Observe(1, mem.Line(i), true)
	}
	if ks := p.Kernels(DefaultProfileParams()); len(ks) != 0 {
		t.Fatalf("sparse PC qualified: %v", ks)
	}
}

func TestKernelOrderByMisses(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 100; i++ {
		p.Observe(1, mem.Line(i), true)
	}
	for i := 0; i < 200; i++ {
		p.Observe(2, mem.Line(i*3), true)
	}
	ks := p.Kernels(DefaultProfileParams())
	if len(ks) != 2 || ks[0].PC != 2 || ks[1].PC != 1 {
		t.Fatalf("kernel order = %v", ks)
	}
}

func TestPrefetcherIssuesAtDistance(t *testing.T) {
	pf := NewPrefetcher([]Kernel{{PC: 1, StrideLine: 2}}, 8)
	got := pf.OnDemand(1, 100)
	if len(got) != 1 || got[0] != mem.Line(100+2*8) {
		t.Fatalf("OnDemand = %v, want line 116", got)
	}
	if pf.OnDemand(99, 100) != nil {
		t.Fatal("non-kernel PC prefetched")
	}
	if pf.Issued() != 1 {
		t.Fatalf("Issued = %d", pf.Issued())
	}
}

func TestPrefetcherNegativeClamp(t *testing.T) {
	pf := NewPrefetcher([]Kernel{{PC: 1, StrideLine: -100}}, 8)
	if got := pf.OnDemand(1, 10); got != nil {
		t.Fatalf("negative target not clamped: %v", got)
	}
}

func TestPrefetcherMaxLineClamp(t *testing.T) {
	pf := NewPrefetcher([]Kernel{{PC: 1, StrideLine: 2}}, 8)
	if got := pf.OnDemand(1, mem.MaxLine-16); len(got) != 1 || got[0] != mem.MaxLine {
		t.Fatalf("OnDemand(MaxLine-16) = %v, want [MaxLine]", got)
	}
	if got := pf.OnDemand(1, mem.MaxLine-15); got != nil {
		t.Fatalf("target beyond MaxLine not dropped: %v", got)
	}
}

func TestTuneDistanceFindsPeak(t *testing.T) {
	// Response peaks at distance 8.
	measure := func(d int) float64 {
		diff := d - 8
		if diff < 0 {
			diff = -diff
		}
		return 100 - float64(diff)
	}
	if got := TuneDistance(64, measure); got != 8 {
		t.Fatalf("TuneDistance = %d, want 8", got)
	}
}

func TestTuneDistanceMonotoneUp(t *testing.T) {
	if got := TuneDistance(64, func(d int) float64 { return float64(d) }); got != 64 {
		t.Fatalf("TuneDistance = %d, want 64", got)
	}
}

func TestTuneDistanceMonotoneDown(t *testing.T) {
	if got := TuneDistance(64, func(d int) float64 { return -float64(d) }); got != 1 {
		t.Fatalf("TuneDistance = %d, want 1", got)
	}
}

func TestTuneDistanceCachesMeasurements(t *testing.T) {
	calls := map[int]int{}
	TuneDistance(64, func(d int) float64 {
		calls[d]++
		return float64(d)
	})
	for d, n := range calls {
		if n > 1 {
			t.Fatalf("distance %d measured %d times", d, n)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	p := DefaultProfileParams()
	if p.MinMissRatio != 0.10 {
		t.Error("RPG2 qualification threshold is 10% cache misses")
	}
}

func TestPrefetcherName(t *testing.T) {
	pf := NewPrefetcher(nil, 4)
	if pf.Name() != "rpg2" || len(pf.kernels) != 0 || pf.Distance() != 4 {
		t.Error("metadata accessors wrong")
	}
}
