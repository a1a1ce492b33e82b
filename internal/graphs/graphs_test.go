package graphs

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"prophet/internal/mem"
)

func TestParse(t *testing.T) {
	w, err := Parse("bfs_100000_16")
	if err != nil {
		t.Fatal(err)
	}
	if w.Algorithm != "bfs" || w.Nodes != 100000 || w.Param != 16 {
		t.Fatalf("parsed %+v", w)
	}
	for _, bad := range []string{"bfs_x_16", "nope_10_2", "bfs_10", "bfs_-5_2", ""} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestCRONOSetMatchesFigure15(t *testing.T) {
	set := CRONO()
	if len(set) != 9 {
		t.Fatalf("CRONO set has %d workloads, want 9", len(set))
	}
	algos := map[string]int{}
	for _, w := range set {
		algos[w.Algorithm]++
	}
	if algos["bc"] != 2 || algos["bfs"] != 3 || algos["dfs"] != 2 || algos["pagerank"] != 1 || algos["sssp"] != 1 {
		t.Fatalf("algorithm mix wrong: %v", algos)
	}
}

// TestTracesDeterministic: two builds of a workload's trace encode the
// same records in the same bytes, and Source replays that trace. Source
// answers a second call from the packed-trace memo, so the builds compared
// are trace's own.
func TestTracesDeterministic(t *testing.T) {
	for _, w := range CRONO() {
		a, b := w.trace(3000), w.trace(3000)
		if a.Len() != 3000 {
			t.Fatalf("%s: %d records", w.Name, a.Len())
		}
		recs := mem.Collect(a.Source(), 0)
		if a.Bytes() != b.Bytes() || !slices.Equal(mem.Collect(b.Source(), 0), recs) {
			t.Fatalf("%s: two builds differ", w.Name)
		}
		if !slices.Equal(mem.Collect(w.Source(3000), 0), recs) {
			t.Fatalf("%s: Source replays another trace", w.Name)
		}
	}
}

// TestTraceBuildPacksAsItTraces: a default-length graph build encodes its
// records as the algorithm emits them, so it allocates less than twice the
// packed trace it returns (the graph's own arrays included), where holding
// the records first as an []Access took 24 bytes a record, about 4x.
func TestTraceBuildPacksAsItTraces(t *testing.T) {
	for _, w := range CRONO() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := w.trace(DefaultRecords)
		runtime.ReadMemStats(&after)
		if p.Len() != DefaultRecords {
			t.Fatalf("%s: %d records", w.Name, p.Len())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(p.Bytes()) {
			t.Errorf("%s: building a %d-byte trace allocated %d bytes, want under twice that", w.Name, p.Bytes(), got)
		}
	}
}

func TestGraphDegreeBounds(t *testing.T) {
	g := NewGraph(10000, 16, 7)
	for u := 0; u < 1000; u++ {
		d := g.Degree(u)
		// Normal vertices reach 1.5x avgDeg; hubs are amplified 8x.
		if d < 1 || d > 16*12 {
			t.Fatalf("Degree(%d) = %d out of bounds", u, d)
		}
	}
	// Hubs every 64 vertices have amplified degree.
	if g.Degree(64) <= g.Degree(63)/2 {
		t.Log("hub not clearly larger; acceptable but suspicious")
	}
}

func TestNbrInRange(t *testing.T) {
	f := func(seed uint64, uRaw, jRaw uint16) bool {
		g := NewGraph(5000, 8, seed)
		v := g.Nbr(int(uRaw)%5000, int(jRaw)%32)
		return v >= 0 && v < 5000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraversalsRepeat(t *testing.T) {
	// BFS from a cycling source pool revisits the same gather sequences —
	// the temporal pattern. Verify meaningful address repetition exists.
	w, _ := Parse("bfs_50000_8")
	recs := mem.Collect(w.Source(60000), 0)
	seen := map[mem.Addr]int{}
	repeats := 0
	for _, r := range recs {
		seen[r.Addr]++
		if seen[r.Addr] == 2 {
			repeats++
		}
	}
	if repeats < 1000 {
		t.Fatalf("only %d addresses repeat; traversal repetition missing", repeats)
	}
}

func TestIndirectGathersCarryDeps(t *testing.T) {
	w, _ := Parse("bfs_50000_8")
	recs := mem.Collect(w.Source(20000), 0)
	deps := 0
	for _, r := range recs {
		if r.Dep != 0 {
			deps++
		}
	}
	if deps < len(recs)/4 {
		t.Fatalf("only %d/%d dependent records; gathers must depend on neighbour loads", deps, len(recs))
	}
}

func TestKernelScansAreStrided(t *testing.T) {
	w, _ := Parse("pagerank_20000_16")
	recs := mem.Collect(w.Source(20000), 0)
	var nbrAddrs []mem.Addr
	for _, r := range recs {
		if r.PC == pcNbr {
			nbrAddrs = append(nbrAddrs, r.Addr)
		}
	}
	if len(nbrAddrs) < 100 {
		t.Fatalf("only %d nbr kernel accesses", len(nbrAddrs))
	}
	mono := 0
	for i := 1; i < len(nbrAddrs); i++ {
		if nbrAddrs[i] > nbrAddrs[i-1] {
			mono++
		}
	}
	// Rows overlap where deg(u) exceeds the average and each iteration
	// restarts the sweep, so ascent is predominant, not total.
	if float64(mono)/float64(len(nbrAddrs)) < 0.6 {
		t.Fatalf("nbr kernel not predominantly ascending (%d/%d)", mono, len(nbrAddrs))
	}
}

func TestAlgorithmsCoverAllPCs(t *testing.T) {
	cases := map[string][]mem.Addr{
		"bfs_20000_8":      {pcOffsets, pcNbr, pcDistLoad, pcDistStor},
		"dfs_20000_8":      {pcOffsets, pcNbr, pcDistLoad, pcFrontier},
		"pagerank_20000_8": {pcOffsets, pcNbr, pcRankLoad, pcRankStor},
		"sssp_20000_5":     {pcOffsets, pcNbr, pcWeight, pcDistLoad, pcDistStor},
		"bc_20000_8":       {pcOffsets, pcNbr, pcSigma, pcSigmaBack},
	}
	for name, pcs := range cases {
		w, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := mem.Collect(w.Source(30000), 0)
		seen := map[mem.Addr]bool{}
		for _, r := range recs {
			seen[r.PC] = true
		}
		for _, pc := range pcs {
			if !seen[pc] {
				t.Errorf("%s: load site %#x never executed", name, uint64(pc))
			}
		}
	}
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm should panic in Source")
		}
	}()
	w := Workload{Name: "x", Algorithm: "zzz", Nodes: 10, Param: 2}
	w.Source(10)
}

func TestDegreeClamp(t *testing.T) {
	w := Workload{Name: "dfs_800000_800", Algorithm: "dfs", Nodes: 800000, Param: 800}
	if d := w.degree(); d != 32 {
		t.Fatalf("degree clamp = %d, want 32", d)
	}
	w.Param = 1
	if d := w.degree(); d != 2 {
		t.Fatalf("degree floor = %d, want 2", d)
	}
}
