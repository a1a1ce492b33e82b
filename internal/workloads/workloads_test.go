package workloads

import (
	"reflect"
	"testing"
	"testing/quick"

	"prophet/internal/mem"
)

func TestDeterministicTraces(t *testing.T) {
	for _, w := range SPEC() {
		a := mem.Collect(w.Source(5000), 0)
		b := mem.Collect(w.Source(5000), 0)
		if len(a) != 5000 || len(b) != 5000 {
			t.Fatalf("%s: wrong lengths %d/%d", w.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs: %+v vs %+v", w.Name, i, a[i], b[i])
			}
		}
	}
}

func TestCatalogResolvesAllNames(t *testing.T) {
	for _, w := range All() {
		got, ok := Get(w.Name)
		if !ok || got.Name != w.Name {
			t.Errorf("Get(%q) failed", w.Name)
		}
	}
	if _, ok := Get("no_such_workload"); ok {
		t.Error("Get accepted a bogus name")
	}
}

func TestSPECSetMatchesFigure10(t *testing.T) {
	want := []string{"astar_biglakes", "gcc_166", "mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"}
	set := SPEC()
	if len(set) != len(want) {
		t.Fatalf("SPEC set has %d workloads", len(set))
	}
	for i, w := range set {
		if w.Name != want[i] {
			t.Errorf("SPEC[%d] = %s, want %s", i, w.Name, want[i])
		}
	}
}

func TestGCCNineInputs(t *testing.T) {
	names := GCCInputNames()
	if len(names) != 9 {
		t.Fatalf("gcc inputs = %d, want 9 (Figure 13)", len(names))
	}
	for _, n := range names {
		w := GCC(n)
		if w.Name != "gcc_"+n {
			t.Errorf("GCC(%q).Name = %s", n, w.Name)
		}
	}
}

func TestGCCUnknownInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GCC with unknown input should panic")
		}
	}()
	GCC("nope")
}

// Figure 7 structure: shared Load A PCs appear under every gcc input with
// identical address sequences; input-specific PCs do not overlap.
func TestGCCSharedAndSpecificPCs(t *testing.T) {
	pcsOf := func(name string) map[mem.Addr][]mem.Line {
		out := map[mem.Addr][]mem.Line{}
		src := GCC(name).Source(30000)
		for {
			a, ok := src.Next()
			if !ok {
				break
			}
			if len(out[a.PC]) < 50 {
				out[a.PC] = append(out[a.PC], a.Line())
			}
		}
		return out
	}
	a := pcsOf("166")
	b := pcsOf("typeck")
	shared := 0
	identical := 0
	for pc, seqA := range a {
		seqB, ok := b[pc]
		if !ok {
			continue
		}
		shared++
		if len(seqA) > 10 && len(seqB) > 10 {
			same := true
			n := len(seqA)
			if len(seqB) < n {
				n = len(seqB)
			}
			// Interleaving differs between inputs, so compare sets
			// loosely: identical region base implies shared stream.
			if seqA[0]>>20 != seqB[0]>>20 {
				same = false
			}
			if same {
				identical++
			}
		}
	}
	if shared < 5 {
		t.Fatalf("only %d shared PCs between gcc inputs; Figure 7 needs Load A/E sharing", shared)
	}
	if identical == 0 {
		t.Fatal("no shared PC uses the same address region across inputs")
	}
	// Input-specific PCs must exist on both sides.
	onlyA := 0
	for pc := range a {
		if _, ok := b[pc]; !ok {
			onlyA++
		}
	}
	if onlyA == 0 {
		t.Fatal("no input-specific PCs (Loads B/C missing)")
	}
}

func TestPointerChaseDependencies(t *testing.T) {
	w := spec("chase", 1, PatternSpec{Kind: PointerChase, Weight: 1, SeqLines: 100, Gap: 2})
	recs := mem.Collect(w.Source(1000), 0)
	deps := 0
	for _, r := range recs {
		if r.Dep != 0 {
			deps++
		}
	}
	if deps < 900 {
		t.Fatalf("pointer chase emitted only %d/1000 dependent records", deps)
	}
	// Single stream: dependence distance is exactly 1.
	for i, r := range recs[1:] {
		if r.Dep != 1 {
			t.Fatalf("record %d Dep = %d, want 1", i+1, r.Dep)
		}
	}
}

func TestTemporalSequenceRepeats(t *testing.T) {
	w := spec("rep", 2, PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 50})
	recs := mem.Collect(w.Source(150), 0)
	for i := 0; i < 50; i++ {
		if recs[i].Addr != recs[i+50].Addr || recs[i].Addr != recs[i+100].Addr {
			t.Fatalf("sequence does not repeat at position %d", i)
		}
	}
}

func TestMultiPathAlternatesSuccessors(t *testing.T) {
	w := spec("mp", 3, PatternSpec{Kind: MultiPath, Weight: 1, SeqLines: 40, Paths: 2})
	recs := mem.Collect(w.Source(400), 0)
	succ := map[mem.Line]map[mem.Line]bool{}
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1].Line(), recs[i].Line()
		if succ[prev] == nil {
			succ[prev] = map[mem.Line]bool{}
		}
		succ[prev][cur] = true
	}
	multi := 0
	for _, s := range succ {
		if len(s) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("multi-path stream produced no multi-successor sources (Figure 8 pattern missing)")
	}
}

func TestIndirectStrideHasStridedKernel(t *testing.T) {
	w := spec("ind", 4, PatternSpec{Kind: IndirectStride, Weight: 1, SeqLines: 512})
	recs := mem.Collect(w.Source(2000), 0)
	// Kernel PC accesses advance monotonically (strided); data PC accesses
	// depend on the kernel.
	var kernelPC mem.Addr
	for i := 1; i < len(recs); i++ {
		if recs[i].Dep != 0 {
			kernelPC = recs[i-1].PC
			break
		}
	}
	if kernelPC == 0 {
		t.Fatal("no dependent data access found")
	}
	var last mem.Addr
	for _, r := range recs {
		if r.PC == kernelPC {
			if last != 0 && r.Addr < last {
				t.Fatal("kernel PC addresses not monotonic")
			}
			last = r.Addr
		}
	}
}

func TestRandomAccessDoesNotRepeat(t *testing.T) {
	w := spec("rnd", 5, PatternSpec{Kind: RandomAccess, Weight: 1})
	recs := mem.Collect(w.Source(5000), 0)
	seen := map[mem.Line]int{}
	for _, r := range recs {
		seen[r.Line()]++
	}
	if len(seen) < 4900 {
		t.Fatalf("random stream only %d distinct lines of 5000", len(seen))
	}
}

func TestScaledShrinksSequencesAndRecords(t *testing.T) {
	w := MCF()
	s := w.Scaled(50)
	if s.Spec.Records != w.Spec.Records/2 {
		t.Errorf("Records = %d, want %d", s.Spec.Records, w.Spec.Records/2)
	}
	for i := range s.Spec.Patterns {
		if w.Spec.Patterns[i].SeqLines > 0 && s.Spec.Patterns[i].SeqLines != w.Spec.Patterns[i].SeqLines/2 {
			t.Errorf("pattern %d SeqLines = %d, want %d", i, s.Spec.Patterns[i].SeqLines, w.Spec.Patterns[i].SeqLines/2)
		}
	}
	// Original must be untouched (deep copy).
	if w.Spec.Patterns[0].SeqLines != MCF().Spec.Patterns[0].SeqLines {
		t.Error("Scaled mutated the original workload")
	}
	if same := w.Scaled(100); &same.Spec.Patterns[0] != &w.Spec.Patterns[0] {
		// Scaled(100) returns the workload unchanged.
		t.Error("Scaled(100) should be a no-op")
	}
}

func TestClonesSplitWeightAndPCs(t *testing.T) {
	w := spec("cl", 6,
		PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 100, Clones: 3, PCSeed: 900},
	)
	recs := mem.Collect(w.Source(3000), 0)
	pcs := map[mem.Addr]int{}
	for _, r := range recs {
		pcs[r.PC]++
	}
	if len(pcs) != 3 {
		t.Fatalf("3 clones produced %d PCs", len(pcs))
	}
	for pc, n := range pcs {
		if n < 600 || n > 1400 {
			t.Errorf("clone pc %v saw %d records; weights not split evenly", pc, n)
		}
	}
}

func TestGapsAndStores(t *testing.T) {
	w := spec("gs", 7, PatternSpec{Kind: Temporal, Weight: 1, SeqLines: 100, Gap: 5, StoreRatio: 0.3})
	recs := mem.Collect(w.Source(2000), 0)
	stores := 0
	for _, r := range recs {
		if r.Gap < 5 || r.Gap > 7 {
			t.Fatalf("gap %d outside [5,7]", r.Gap)
		}
		if r.Kind == mem.Store {
			stores++
		}
	}
	if stores < 400 || stores > 800 {
		t.Fatalf("stores = %d of 2000, want ~30%%", stores)
	}
}

// Property: any pattern mix produces exactly the requested record count with
// addresses inside the pattern's region space.
func TestGeneratorProducesRequestedRecords(t *testing.T) {
	f := func(seed uint64, kindRaw uint8) bool {
		kind := PatternKind(kindRaw % 8)
		w := spec("prop", seed%1000+1, PatternSpec{Kind: kind, Weight: 1, SeqLines: 256, Paths: 2})
		recs := mem.Collect(w.Source(777), 0)
		return len(recs) == 777
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

func TestPatternKindString(t *testing.T) {
	for k := PatternKind(0); k < 8; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSoplexUnknownInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Soplex with unknown input should panic")
		}
	}()
	Soplex("nope")
}

// TestGetReturnsCopies: Get and All hand out copies of the catalog, so a
// caller that edits a returned workload's patterns leaves every later Get
// unchanged.
func TestGetReturnsCopies(t *testing.T) {
	w, _ := Get("mcf")
	w.Spec.Patterns[0].SeqLines = 1
	for _, w := range All() {
		w.Spec.Patterns[0].SeqLines = 1
	}
	if got, _ := Get("mcf"); !reflect.DeepEqual(got, MCF()) {
		t.Fatalf("editing returned workloads changed the catalog's mcf: %+v", got.Spec.Patterns[0])
	}
}
