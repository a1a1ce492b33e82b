package analysis

import (
	"testing"
	"testing/quick"

	"prophet/internal/learning"
	"prophet/internal/mem"
	"prophet/internal/temporal"
)

func profileWith(pcs map[mem.Addr]learning.PCProfile, allocated uint64) *learning.Profile {
	p := learning.NewProfile(4)
	for pc, prof := range pcs {
		p.PCs[pc] = prof
	}
	p.AllocatedEntries = allocated
	return p
}

func TestEquation1InsertDecision(t *testing.T) {
	if InsertDecision(0.14, 0.15) {
		t.Error("accuracy below EL_ACC must not insert")
	}
	if !InsertDecision(0.15, 0.15) {
		t.Error("accuracy at EL_ACC must insert")
	}
	if !InsertDecision(0.9, 0.15) {
		t.Error("high accuracy must insert")
	}
}

func TestEquation2PriorityLevels(t *testing.T) {
	// n=2: bands [0,.25) [.25,.5) [.5,.75) [.75,1].
	cases := []struct {
		acc  float64
		want uint8
	}{
		{0.0, 0}, {0.2, 0}, {0.25, 1}, {0.49, 1},
		{0.5, 2}, {0.74, 2}, {0.75, 3}, {0.99, 3}, {1.0, 3},
	}
	for _, c := range cases {
		if got := PriorityLevel(c.acc, 2); got != c.want {
			t.Errorf("PriorityLevel(%v, 2) = %d, want %d", c.acc, got, c.want)
		}
	}
}

func TestEquation2PriorityBitsProperty(t *testing.T) {
	f := func(raw uint16, bits uint8) bool {
		b := int(bits%3) + 1 // 1..3 bits
		acc := float64(raw) / 65535
		lvl := PriorityLevel(acc, b)
		return int(lvl) < 1<<b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEquation2LevelsMonotone: for every n up to MaxPriorityBits a higher
// accuracy never gets a lower level and accuracy 1 reaches the top level,
// 2^n - 1, so no level wraps the one-byte priority.
func TestEquation2LevelsMonotone(t *testing.T) {
	for bits := 1; bits <= MaxPriorityBits; bits++ {
		prev := uint8(0)
		for i := range 4097 {
			lvl := PriorityLevel(float64(i)/4096, bits)
			if lvl < prev {
				t.Fatalf("n=%d: accuracy %d/4096 gets level %d, below %d", bits, i, lvl, prev)
			}
			prev = lvl
		}
		if top := uint8(1<<bits - 1); prev != top {
			t.Fatalf("n=%d: accuracy 1 gets level %d, want %d", bits, prev, top)
		}
	}
}

func TestEquation3Ways(t *testing.T) {
	table := temporal.DefaultTableConfig() // 24576 entries/way, max 8
	cases := []struct {
		entries uint64
		ways    int
		disable bool
	}{
		{0, 0, true},
		{1000, 0, true},        // rounds to 1024, well under half a way
		{12288, 1, false},      // ties round up: 16384 entries -> 1 way
		{20000, 1, false},      // rounds to 16384 -> 1 way
		{24576, 2, false},      // tie rounds up to 32768 -> 2 ways
		{25000, 2, false},      // rounds to 32768 -> 2 ways
		{100_000, 6, false},    // rounds to 131072 -> 5.33 -> 6 ways
		{300_000, 8, false},    // capped at the 1MB table
		{10_000_000, 8, false}, // far beyond cap
	}
	for _, c := range cases {
		ways, disable := WaysForEntries(c.entries, table)
		if ways != c.ways || disable != c.disable {
			t.Errorf("WaysForEntries(%d) = (%d,%v), want (%d,%v)",
				c.entries, ways, disable, c.ways, c.disable)
		}
	}
}

func TestAnalyzeGeneratesHints(t *testing.T) {
	p := profileWith(map[mem.Addr]learning.PCProfile{
		1: {Accuracy: 0.05, MissWeight: 100}, // below EL_ACC: filtered
		2: {Accuracy: 0.30, MissWeight: 200}, // level 1
		3: {Accuracy: 0.90, MissWeight: 300}, // level 3
		4: {Accuracy: -1, MissWeight: 50},    // no evidence: no hint
	}, 50_000)
	res := Analyze(p, DefaultParams())
	if h := res.Hints.PC[1]; h.Insert {
		t.Errorf("PC1 hint = %+v, want do-not-insert", h)
	}
	if h := res.Hints.PC[2]; !h.Insert || h.Priority != 1 {
		t.Errorf("PC2 hint = %+v, want insert priority 1", h)
	}
	if h := res.Hints.PC[3]; !h.Insert || h.Priority != 3 {
		t.Errorf("PC3 hint = %+v, want insert priority 3", h)
	}
	if _, ok := res.Hints.PC[4]; ok {
		t.Error("PC4 with no accuracy evidence must not receive a hint")
	}
	if res.HintInstructions != 3 {
		t.Errorf("HintInstructions = %d, want 3", res.HintInstructions)
	}
	// 50,000 entries round to 65,536 -> ceil(65536/24576) = 3 ways.
	if res.Hints.MetaWays != 3 || res.Hints.DisableTP {
		t.Errorf("resizing hint = %d ways disable=%v, want 3 ways", res.Hints.MetaWays, res.Hints.DisableTP)
	}
	if res.Weights[3] != 300 {
		t.Errorf("weights = %v", res.Weights)
	}
}

// TestMissWeightsRounding: Analyze rounds each hinted PC's merged miss
// weight to the nearest integer, halves up, for the hint buffer's ranking.
func TestMissWeightsRounding(t *testing.T) {
	p := profileWith(map[mem.Addr]learning.PCProfile{
		1: {Accuracy: 0.5, MissWeight: 99.5},
		2: {Accuracy: 0.5, MissWeight: 99.49},
		3: {Accuracy: 0.5, MissWeight: 100},
		4: {Accuracy: 0.05, MissWeight: 7.5}, // filtered PCs keep their weight
	}, 50_000)
	w := Analyze(p, DefaultParams()).Weights
	if w[1] != 100 || w[2] != 99 || w[3] != 100 || w[4] != 8 || len(w) != 4 {
		t.Fatalf("Weights = %v, want 1:100 2:99 3:100 4:8", w)
	}
}

func TestAnalyzeTrimsToHintBuffer(t *testing.T) {
	pcs := map[mem.Addr]learning.PCProfile{}
	for i := 0; i < 300; i++ {
		pcs[mem.Addr(1000+i)] = learning.PCProfile{Accuracy: 0.5, MissWeight: float64(i)}
	}
	res := Analyze(profileWith(pcs, 100_000), DefaultParams())
	if len(res.Hints.PC) != 128 {
		t.Fatalf("hint count = %d, want 128 (hint buffer cap)", len(res.Hints.PC))
	}
	// The heaviest PC must survive the trim.
	if _, ok := res.Hints.PC[mem.Addr(1000+299)]; !ok {
		t.Fatal("heaviest-miss PC trimmed")
	}
	// The lightest must not.
	if _, ok := res.Hints.PC[mem.Addr(1000)]; ok {
		t.Fatal("lightest-miss PC kept")
	}
	if res.HintInstructions > 128 {
		t.Fatalf("HintInstructions = %d, exceeds the 128 budget", res.HintInstructions)
	}
}

func TestAnalyzeDisableTPForTinyFootprint(t *testing.T) {
	res := Analyze(profileWith(nil, 100), DefaultParams())
	if !res.Hints.DisableTP {
		t.Fatal("tiny metadata footprint must disable temporal prefetching")
	}
}

func TestAnalyzeElapsedUnderASecond(t *testing.T) {
	pcs := map[mem.Addr]learning.PCProfile{}
	for i := 0; i < 10000; i++ {
		pcs[mem.Addr(i)] = learning.PCProfile{Accuracy: 0.4, MissWeight: 1}
	}
	res := Analyze(profileWith(pcs, 100_000), DefaultParams())
	if res.Elapsed.Seconds() >= 1.0 {
		t.Fatalf("analysis took %v, paper requires <1s", res.Elapsed)
	}
}

func TestRoundPow2(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 4}, {6, 8},
		{7, 8}, {1000, 1024}, {1536, 2048}, {1535, 1024},
	}
	for _, c := range cases {
		if got := roundPow2(c.in); got != c.want {
			t.Errorf("roundPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.ELAcc != 0.15 {
		t.Error("EL_ACC default must be 0.15 (Figure 16a)")
	}
	if p.PriorityBits != 2 {
		t.Error("n default must be 2 (Figure 16b)")
	}
	if p.MaxHints != 128 {
		t.Error("hint cap must be 128")
	}
}
