package learning

import (
	"math"
	"testing"

	"prophet/internal/mem"
	"prophet/internal/pmu"
)

func counters(accByPC map[mem.Addr]float64, allocated uint64) *pmu.Counters {
	c := pmu.NewCounters(1)
	for pc, acc := range accByPC {
		e := &pmu.PCCounters{Issued: 1000, Useful: uint64(acc * 1000), L2Misses: 100}
		c.PC[pc] = e
	}
	c.SetTableCounters(allocated, 0)
	return c
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFirstLearnAdoptsCounters(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.8, 2: 0.1}, 5000))
	if !near(p.Accuracy(1), 0.8) || !near(p.Accuracy(2), 0.1) {
		t.Fatalf("first learn: acc(1)=%v acc(2)=%v", p.Accuracy(1), p.Accuracy(2))
	}
	if p.AllocatedEntries != 5000 {
		t.Fatalf("AllocatedEntries = %d", p.AllocatedEntries)
	}
	if p.Loops != 1 {
		t.Fatalf("Loops = %d", p.Loops)
	}
}

// Load A of Figure 7: identical behaviour under both inputs is a fixed point.
func TestEquation4FixedPoint(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.8}, 100))
	p.Learn(counters(map[mem.Addr]float64{1: 0.8}, 100))
	if !near(p.Accuracy(1), 0.8) {
		t.Fatalf("agreeing inputs moved the estimate: %v", p.Accuracy(1))
	}
}

// Loads B and C of Figure 7: a PC first seen under input Y is adopted as-is.
func TestEquation4NewPCAdopted(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.8}, 100))
	p.Learn(counters(map[mem.Addr]float64{2: 0.3}, 100))
	if !near(p.Accuracy(2), 0.3) {
		t.Fatalf("new PC accuracy = %v, want adopted 0.3", p.Accuracy(2))
	}
	if !near(p.Accuracy(1), 0.8) {
		t.Fatalf("absent PC must keep old estimate, got %v", p.Accuracy(1))
	}
}

// Load E of Figure 7: conflicting observations move the estimate by
// (n - o) / min(l+1, L).
func TestEquation4ConflictingObservation(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.2}, 100)) // l becomes 1
	p.Learn(counters(map[mem.Addr]float64{1: 1.0}, 100)) // min(l+1,L) = 2
	want := 0.2 + (1.0-0.2)/2
	if !near(p.Accuracy(1), want) {
		t.Fatalf("merged accuracy = %v, want %v", p.Accuracy(1), want)
	}
}

// Over time, frequently observed values dominate (Section 4.3).
func TestEquation4Convergence(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.0}, 100))
	for i := 0; i < 20; i++ {
		p.Learn(counters(map[mem.Addr]float64{1: 0.9}, 100))
	}
	if p.Accuracy(1) < 0.85 {
		t.Fatalf("estimate %v did not converge toward 0.9", p.Accuracy(1))
	}
}

func TestEquation4LBoundsAdaptationRate(t *testing.T) {
	// With L=2 the step size never shrinks below 1/2, adapting faster
	// than L=8 after many loops.
	fast, slow := NewProfile(2), NewProfile(8)
	for i := 0; i < 10; i++ {
		fast.Learn(counters(map[mem.Addr]float64{1: 0.0}, 100))
		slow.Learn(counters(map[mem.Addr]float64{1: 0.0}, 100))
	}
	fast.Learn(counters(map[mem.Addr]float64{1: 1.0}, 100))
	slow.Learn(counters(map[mem.Addr]float64{1: 1.0}, 100))
	if fast.Accuracy(1) <= slow.Accuracy(1) {
		t.Fatalf("L=2 (%v) should adapt faster than L=8 (%v)", fast.Accuracy(1), slow.Accuracy(1))
	}
	if !near(fast.Accuracy(1), 0.5) {
		t.Fatalf("L=2 step = %v, want 0.5", fast.Accuracy(1))
	}
}

// Equation 5: the merged allocation is the maximum over inputs.
func TestEquation5Max(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(nil, 1000))
	p.Learn(counters(nil, 5000))
	p.Learn(counters(nil, 2000))
	if p.AllocatedEntries != 5000 {
		t.Fatalf("AllocatedEntries = %d, want max 5000", p.AllocatedEntries)
	}
}

func TestNoEvidenceKeepsOldAccuracy(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.8}, 100))
	// Second input: PC 1 misses but never issues prefetches (acc -1).
	c := pmu.NewCounters(1)
	c.PC[1] = &pmu.PCCounters{L2Misses: 50}
	p.Learn(c)
	if !near(p.Accuracy(1), 0.8) {
		t.Fatalf("no-evidence input changed accuracy to %v", p.Accuracy(1))
	}
}

func TestUnknownPCAccuracy(t *testing.T) {
	p := NewProfile(4)
	if p.Accuracy(42) != -1 {
		t.Fatal("unknown PC must report -1")
	}
}

func TestClone(t *testing.T) {
	p := NewProfile(4)
	p.Learn(counters(map[mem.Addr]float64{1: 0.8}, 100))
	c := p.Clone()
	c.Learn(counters(map[mem.Addr]float64{2: 0.2}, 200))
	if len(p.PCs) != 1 || p.Loops != 1 || p.AllocatedEntries != 100 {
		t.Fatal("Clone aliases profile state")
	}
}

func TestDefaultL(t *testing.T) {
	if NewProfile(0).L != DefaultL {
		t.Fatal("NewProfile(0) must use DefaultL")
	}
}
