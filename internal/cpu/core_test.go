package cpu

import (
	"testing"

	"prophet/internal/mem"
)

// fixedMemory returns hitLat for every access, or missLat for lines in the
// miss set, and reports l1Miss accordingly.
type fixedMemory struct {
	hitLat  uint64
	missLat uint64
	misses  map[mem.Line]bool
	count   int
}

func (m *fixedMemory) Access(a mem.Access, now uint64) (uint64, bool) {
	m.count++
	if m.misses != nil && m.misses[a.Line()] {
		return now + m.missLat, true
	}
	return now + m.hitLat, false
}

func loadAt(pc, addr mem.Addr, dep uint32, gap uint16) mem.Access {
	return mem.Access{PC: pc, Addr: addr, Kind: mem.Load, Dep: dep, Gap: gap}
}

func TestIPCBoundedByFetchWidth(t *testing.T) {
	// All hits, no dependences: throughput should approach fetch width.
	m := &fixedMemory{hitLat: 2}
	var recs []mem.Access
	for i := 0; i < 10000; i++ {
		recs = append(recs, loadAt(1, mem.Addr(i*64), 0, 4)) // 5 instructions per record
	}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	ipc := st.IPC()
	if ipc > 5.01 {
		t.Fatalf("IPC %.2f exceeds fetch width 5", ipc)
	}
	if ipc < 4.0 {
		t.Fatalf("IPC %.2f too far below fetch width for an all-hit run", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// Every load misses (200 cycles) and depends on the previous one:
	// total cycles ~= n * 200.
	misses := map[mem.Line]bool{}
	var recs []mem.Access
	const n = 200
	for i := 0; i < n; i++ {
		addr := mem.Addr(i * 64)
		misses[mem.LineOf(addr)] = true
		recs = append(recs, loadAt(1, addr, 1, 0))
	}
	m := &fixedMemory{hitLat: 2, missLat: 200, misses: misses}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	if st.Cycles < n*200*9/10 {
		t.Fatalf("dependent chain finished in %d cycles, want >= %d", st.Cycles, n*200*9/10)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Same misses but independent: MLP should cut cycles far below serial.
	misses := map[mem.Line]bool{}
	var recs []mem.Access
	const n = 200
	for i := 0; i < n; i++ {
		addr := mem.Addr(i * 64)
		misses[mem.LineOf(addr)] = true
		recs = append(recs, loadAt(1, addr, 0, 0))
	}
	m := &fixedMemory{hitLat: 2, missLat: 200, misses: misses}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	serial := uint64(n * 200)
	if st.Cycles > serial/4 {
		t.Fatalf("independent misses took %d cycles; want well below serial %d", st.Cycles, serial)
	}
}

func TestMSHRLimitCapsMLP(t *testing.T) {
	misses := map[mem.Line]bool{}
	var recs []mem.Access
	const n = 640
	for i := 0; i < n; i++ {
		addr := mem.Addr(i * 64)
		misses[mem.LineOf(addr)] = true
		recs = append(recs, loadAt(1, addr, 0, 0))
	}
	m := &fixedMemory{hitLat: 2, missLat: 200, misses: misses}
	cfgWide := Default()
	cfgWide.L1MSHRs = 64
	cfgNarrow := Default()
	cfgNarrow.L1MSHRs = 2
	wide := New(cfgWide, m).Run(mem.NewSliceSource(recs))
	m2 := &fixedMemory{hitLat: 2, missLat: 200, misses: misses}
	narrow := New(cfgNarrow, m2).Run(mem.NewSliceSource(recs))
	if narrow.Cycles <= wide.Cycles {
		t.Fatalf("narrow MSHRs (%d cycles) should be slower than wide (%d cycles)", narrow.Cycles, wide.Cycles)
	}
	if narrow.Cycles < wide.Cycles*4 {
		t.Fatalf("MSHR=2 run only %.1fx slower than MSHR=64; limit not binding", float64(narrow.Cycles)/float64(wide.Cycles))
	}
}

func TestROBLimitBlocksDistantOverlap(t *testing.T) {
	// One long miss followed by ROB-filling hit instructions, then another
	// miss: the second miss cannot start until the first retires once the
	// window fills.
	misses := map[mem.Line]bool{0: true, 1: true}
	var recs []mem.Access
	recs = append(recs, loadAt(1, 0, 0, 0))
	// 600 single-instruction hit records exceed the 288-entry ROB.
	for i := 0; i < 600; i++ {
		recs = append(recs, loadAt(2, mem.Addr(0x100000+i*64), 0, 0))
	}
	recs = append(recs, loadAt(3, 64, 0, 0))
	m := &fixedMemory{hitLat: 1, missLat: 1000, misses: misses}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	// The second miss must start after the first completes (cycle ~1000),
	// so total must exceed 1000 + 1000 * something well beyond 1100.
	if st.Cycles < 1900 {
		t.Fatalf("run took %d cycles; ROB should have serialized the two misses (~2000)", st.Cycles)
	}
}

func TestGapInstructionsCostFetchBandwidth(t *testing.T) {
	m := &fixedMemory{hitLat: 1}
	var recs []mem.Access
	for i := 0; i < 1000; i++ {
		recs = append(recs, loadAt(1, mem.Addr(i*64), 0, 99)) // 100 instrs per record
	}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	if st.Instructions != 100000 {
		t.Fatalf("Instructions = %d, want 100000", st.Instructions)
	}
	// 100k instructions at fetch width 5 needs >= 20k cycles.
	if st.Cycles < 20000 {
		t.Fatalf("Cycles = %d, want >= 20000 (fetch-bandwidth bound)", st.Cycles)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	misses := map[mem.Line]bool{}
	var recs []mem.Access
	for i := 0; i < 100; i++ {
		addr := mem.Addr(i * 64)
		misses[mem.LineOf(addr)] = true
		recs = append(recs, mem.Access{PC: 1, Addr: addr, Kind: mem.Store})
	}
	m := &fixedMemory{hitLat: 2, missLat: 500, misses: misses}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	// Posted stores retire quickly; the run should be near fetch-bound.
	if st.Cycles > 1000 {
		t.Fatalf("store-only run took %d cycles; stores should be posted", st.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	rng := mem.NewPRNG(3)
	var recs []mem.Access
	misses := map[mem.Line]bool{}
	for i := 0; i < 5000; i++ {
		addr := mem.Addr(rng.Intn(1<<20) * 64)
		if rng.Intn(3) == 0 {
			misses[mem.LineOf(addr)] = true
		}
		recs = append(recs, loadAt(mem.Addr(rng.Intn(16)), addr, uint32(rng.Intn(3)), uint16(rng.Intn(10))))
	}
	run := func() Stats {
		m := &fixedMemory{hitLat: 2, missLat: 150, misses: misses}
		return New(Default(), m).Run(mem.NewSliceSource(recs))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic core run: %+v vs %+v", a, b)
	}
}

func TestStatsIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("IPC of empty stats should be 0")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero fetch width should panic")
		}
	}()
	New(Config{}, &fixedMemory{})
}

func TestEmptyRun(t *testing.T) {
	st := New(Default(), &fixedMemory{hitLat: 1}).Run(mem.NewSliceSource(nil))
	if st.Instructions != 0 || st.MemRecords != 0 {
		t.Fatalf("empty run produced %+v", st)
	}
}

func TestDepClampOutOfRange(t *testing.T) {
	// A Dep larger than the ring must not panic and must not reference
	// garbage.
	m := &fixedMemory{hitLat: 1}
	recs := []mem.Access{loadAt(1, 0, 999999, 0), loadAt(1, 64, 42, 0)}
	st := New(Default(), m).Run(mem.NewSliceSource(recs))
	if st.MemRecords != 2 {
		t.Fatalf("MemRecords = %d", st.MemRecords)
	}
}

// randomTrace mixes loads and stores, hits and misses, dependences and
// instruction gaps, seeded.
func randomTrace(seed uint64, n int) ([]mem.Access, map[mem.Line]bool) {
	rng := mem.NewPRNG(seed)
	recs := make([]mem.Access, 0, n)
	misses := map[mem.Line]bool{}
	for range n {
		addr := mem.Addr(rng.Intn(1<<16) * 64)
		if rng.Intn(3) == 0 {
			misses[mem.LineOf(addr)] = true
		}
		a := loadAt(mem.Addr(rng.Intn(16)), addr, uint32(rng.Intn(4)), uint16(rng.Intn(12)))
		if rng.Intn(5) == 0 {
			a.Kind = mem.Store
		}
		recs = append(recs, a)
	}
	return recs, misses
}

// recordSource hides SliceSource's NextBlock, so RunBlocks drains it
// record by record.
type recordSource struct{ s *mem.SliceSource }

func (r recordSource) Next() (mem.Access, bool) { return r.s.Next() }

func TestRunBlocksMatchesRun(t *testing.T) {
	recs, misses := randomTrace(7, 20000)
	run := func(f func(*Core) Stats) Stats {
		return f(New(Default(), &fixedMemory{hitLat: 3, missLat: 180, misses: misses}))
	}
	want := run(func(c *Core) Stats { return c.Run(mem.NewSliceSource(recs)) })
	for _, size := range []int{0, 1, 7, 64, 4096} {
		got := run(func(c *Core) Stats {
			return c.RunBlocks(mem.NewSliceSource(recs), make([]mem.Access, size))
		})
		if got != want {
			t.Errorf("RunBlocks, %d-record blocks: %+v, Run: %+v", size, got, want)
		}
		got = run(func(c *Core) Stats {
			return c.RunBlocks(recordSource{mem.NewSliceSource(recs)}, make([]mem.Access, size))
		})
		if got != want {
			t.Errorf("RunBlocks over a record source, %d-record blocks: %+v, Run: %+v", size, got, want)
		}
	}
}

// TestResetMatchesNew: a core Reset after a run (with its load queue left
// part-way through its backing array) runs the next trace exactly as a new
// core does, on the same buffers.
func TestResetMatchesNew(t *testing.T) {
	first, firstMisses := randomTrace(11, 5000)
	second, misses := randomTrace(12, 5000)
	c := New(Default(), &fixedMemory{hitLat: 2, missLat: 300, misses: firstMisses})
	c.Run(mem.NewSliceSource(first))
	buf := &c.robBuf[0]
	c.Reset(&fixedMemory{hitLat: 2, missLat: 300, misses: misses})
	if len(c.robLoads) != 0 || &c.robLoads[:1][0] != buf {
		t.Fatal("Reset left load-queue entries or moved the queue off its buffer")
	}
	got := c.Run(mem.NewSliceSource(second))
	want := New(Default(), &fixedMemory{hitLat: 2, missLat: 300, misses: misses}).Run(mem.NewSliceSource(second))
	if got != want {
		t.Fatalf("after Reset: %+v, new core: %+v", got, want)
	}
}

// TestLQBindsOnIncompleteLoads: with a 4-entry load queue, the fifth of
// eight independent 1000-cycle misses waits for the first to complete, and
// the three after it find the queue freed by then.
func TestLQBindsOnIncompleteLoads(t *testing.T) {
	cfg := Default()
	cfg.LQ = 4
	misses := map[mem.Line]bool{}
	var recs []mem.Access
	for i := range 8 {
		addr := mem.Addr(i * 64)
		misses[mem.LineOf(addr)] = true
		recs = append(recs, loadAt(1, addr, 0, 0))
	}
	st := New(cfg, &fixedMemory{hitLat: 1, missLat: 1000, misses: misses}).Run(mem.NewSliceSource(recs))
	if st.Cycles != 2000 {
		t.Fatalf("Cycles = %d, want 2000: loads 1-4 done at 1000, 5-8 issue then", st.Cycles)
	}
}

// TestLQPrunesCompletedLoads: completed loads left in the queue do not
// count against the LQ. One 1000-cycle miss is followed by twenty 1-cycle
// hits two cycles apart; once the raw count reaches the 4-entry LQ the
// completed hits are pruned, so no hit waits for the miss.
func TestLQPrunesCompletedLoads(t *testing.T) {
	cfg := Default()
	cfg.LQ = 4
	recs := []mem.Access{loadAt(1, 0, 0, 9)}
	for i := range 20 {
		recs = append(recs, loadAt(2, mem.Addr(0x10000+i*64), 0, 9)) // 10 instructions: 2 cycles
	}
	m := &fixedMemory{hitLat: 1, missLat: 1000, misses: map[mem.Line]bool{0: true}}
	st := New(cfg, m).Run(mem.NewSliceSource(recs))
	if st.Cycles != 1002 {
		t.Fatalf("Cycles = %d, want 1002: the miss issues at cycle 2 and no hit waits for it", st.Cycles)
	}
}

// refQueue is the load queue as a plain slice, popped and pushed by the
// rules drainOccupancy and pushLoad follow, without a fixed backing array.
type refQueue []inflight

func (r *refQueue) drain(instrCount, cycle uint64, cfg Config) uint64 {
	q := *r
	for len(q) > 0 && instrCount-q[0].index >= uint64(cfg.ROB) {
		cycle = max(cycle, q[0].done)
		q = q[1:]
	}
	if len(q) >= cfg.LQ {
		var keep []inflight
		for _, f := range q {
			if f.done > cycle {
				keep = append(keep, f)
			}
		}
		for q = keep; len(q) >= cfg.LQ; q = q[1:] {
			cycle = max(cycle, q[0].done)
		}
	}
	*r = append(refQueue(nil), q...)
	return cycle
}

// TestROBQueueCompaction drives the load queue through a 3-entry LQ, so
// its window crosses the 12-entry backing array many times, and checks
// after every step that it matches refQueue, holds at most LQ entries and
// still lives in the array New allocated.
func TestROBQueueCompaction(t *testing.T) {
	cfg := Default()
	cfg.LQ = 3
	cfg.ROB = 40
	c := New(cfg, &fixedMemory{})
	buf := c.robBuf
	var ref refQueue
	rng := mem.NewPRNG(5)
	var cycle uint64
	moves := 0
	for step := range 50000 {
		c.instrCount += uint64(1 + rng.Intn(12))
		cycle += uint64(rng.Intn(4))
		got, want := c.drainOccupancy(cycle), ref.drain(c.instrCount, cycle, cfg)
		if got != want {
			t.Fatalf("step %d: drainOccupancy = %d, reference %d", step, got, want)
		}
		cycle = got
		if rng.Intn(3) != 0 {
			f := inflight{index: c.instrCount, done: cycle + 1 + uint64(rng.Intn(200))}
			if len(c.robLoads) == cap(c.robLoads) {
				moves++
			}
			c.pushLoad(f)
			ref = append(ref, f)
		}
		if len(c.robLoads) > cfg.LQ {
			t.Fatalf("step %d: queue holds %d entries, LQ is %d", step, len(c.robLoads), cfg.LQ)
		}
		if &c.robBuf[0] != &buf[0] || cap(c.robLoads) > 0 && &c.robLoads[:cap(c.robLoads)][cap(c.robLoads)-1] != &buf[len(buf)-1] {
			t.Fatalf("step %d: the queue left the backing array New allocated", step)
		}
		if len(ref) != len(c.robLoads) {
			t.Fatalf("step %d: queue %v, reference %v", step, c.robLoads, ref)
		}
		for i := range ref {
			if ref[i] != c.robLoads[i] {
				t.Fatalf("step %d: queue %v, reference %v", step, c.robLoads, ref)
			}
		}
	}
	if moves < 100 {
		t.Fatalf("the window moved back to the array start %d times; want many", moves)
	}
}
