package sim

import (
	"testing"
	"testing/quick"

	"prophet/internal/mem"
)

// Property: for any random access mix, the hierarchy's accounting stays
// consistent — hits+misses equals accesses per level, demand misses never
// exceed demand accesses, and every sim.Stats.Validate invariant holds.
func TestHierarchyAccountingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mem.NewPRNG(seed)
		var recs []mem.Access
		n := 2000 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			kind := mem.Load
			if rng.Intn(5) == 0 {
				kind = mem.Store
			}
			recs = append(recs, mem.Access{
				PC:   mem.Addr(0x400 + rng.Intn(8)*8),
				Addr: mem.Addr(0x1000000 + rng.Intn(1<<16)*64),
				Kind: kind,
				Gap:  uint16(rng.Intn(6)),
			})
		}
		st := Run(Default(), nil, nil, nil, nil, mem.NewSliceSource(recs))
		if st.Core.MemRecords != uint64(n) {
			return false
		}
		if st.L1.Hits+st.L1.Misses != uint64(n) {
			return false
		}
		if st.L2DemandMisses > st.L2DemandAccesses {
			return false
		}
		if st.L2DemandAccesses != st.L1.Misses {
			return false
		}
		if err := st.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// Cycles must cover at least the fetch-bandwidth lower bound.
		return st.Core.Cycles >= st.Core.Instructions/uint64(Default().Core.FetchWidth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: shrinking cache capacity never reduces DRAM traffic for the same
// trace (monotonicity of the memory hierarchy).
func TestSmallerLLCNeverReducesTraffic(t *testing.T) {
	rng := mem.NewPRNG(9)
	var recs []mem.Access
	for i := 0; i < 20000; i++ {
		recs = append(recs, mem.Access{PC: 1, Addr: mem.Addr(0x1000000 + rng.Intn(24000)*64), Kind: mem.Load})
	}
	big := Default()
	small := Default()
	small.L3.SizeBytes = 1 << 20 // 1MB instead of 2MB
	bigStats := Run(big, nil, nil, nil, nil, mem.NewSliceSource(recs))
	smallStats := Run(small, nil, nil, nil, nil, mem.NewSliceSource(recs))
	if smallStats.DRAM.Traffic() < bigStats.DRAM.Traffic() {
		t.Fatalf("smaller LLC reduced traffic: %d vs %d",
			smallStats.DRAM.Traffic(), bigStats.DRAM.Traffic())
	}
}

// Property: adding memory bandwidth (channels) never increases cycles for
// the same trace and scheme.
func TestMoreChannelsNeverSlower(t *testing.T) {
	rng := mem.NewPRNG(11)
	var recs []mem.Access
	for i := 0; i < 15000; i++ {
		recs = append(recs, mem.Access{PC: 1, Addr: mem.Addr(0x1000000 + rng.Intn(1<<18)*64), Kind: mem.Load, Gap: 2})
	}
	one := Default()
	two := Default()
	two.DRAM.Channels = 2
	oneStats := Run(one, nil, nil, nil, nil, mem.NewSliceSource(recs))
	twoStats := Run(two, nil, nil, nil, nil, mem.NewSliceSource(recs))
	if twoStats.Core.Cycles > oneStats.Core.Cycles {
		t.Fatalf("two channels slower: %d vs %d cycles", twoStats.Core.Cycles, oneStats.Core.Cycles)
	}
}
