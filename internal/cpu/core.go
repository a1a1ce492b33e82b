// Package cpu models the out-of-order core of Table 1: a 5-wide fetch,
// 288-entry-ROB machine with a bounded load queue and L1-MSHR-limited
// memory-level parallelism.
//
// The model is trace-driven and deterministic. It does not simulate register
// renaming or a scheduler; instead it computes, for every memory record, the
// earliest cycle the access can issue given
//
//   - front-end bandwidth (fetch width over the record's instruction gap),
//   - ROB occupancy (an access cannot dispatch until the instruction
//     ROB-size older than it has committed),
//   - load-queue occupancy,
//   - address dependences carried by the trace (mem.Access.Dep), and
//   - L1 MSHR availability for overlapping misses.
//
// These five constraints are what make temporal prefetching matter: pointer
// chases serialize on Dep, bandwidth-bound phases queue on MSHRs, and covered
// misses shrink the critical path. The absolute IPC is not fitted to any
// silicon; relative IPC between prefetching schemes is the quantity the
// experiments report, mirroring the paper's use of speedups.
package cpu

import (
	"prophet/internal/mem"
)

// Config describes the core (defaults follow Table 1).
type Config struct {
	FetchWidth  int // instructions fetched/decoded per cycle
	IssueWidth  int // reported only; the 10-wide back end is not binding
	CommitWidth int // reported only
	ROB         int // reorder-buffer entries
	LQ          int // load-queue entries
	SQ          int // store-queue entries (reported only; stores are posted)
	L1MSHRs     int // outstanding L1 misses
}

// Default returns the Table 1 core configuration.
func Default() Config {
	return Config{
		FetchWidth:  5,
		IssueWidth:  10,
		CommitWidth: 10,
		ROB:         288,
		LQ:          85,
		SQ:          90,
		L1MSHRs:     16,
	}
}

// Memory is the interface the core drives. Access performs the memory access
// at cycle now and returns the cycle its data is available plus whether it
// missed in the L1 (for MSHR accounting).
type Memory interface {
	Access(a mem.Access, now uint64) (ready uint64, l1Miss bool)
}

// Stats reports the outcome of a core run.
type Stats struct {
	Instructions uint64 // total dynamic instructions (memory + gaps)
	MemRecords   uint64 // memory records executed
	Cycles       uint64 // total execution cycles
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// depRingSize bounds how far back a Dep reference may reach. Generators keep
// Dep below this; larger values are clamped.
const depRingSize = 8192

type inflight struct {
	index uint64 // record index (for ROB/LQ distance) in instruction terms
	done  uint64 // completion cycle
}

// Core is the trace-driven core model. A Core is single-use: construct, Run,
// read stats (or Reset between uses when pooled by the simulator).
type Core struct {
	cfg Config
	mem Memory

	slotClock   uint64 // fetch progress in units of 1/FetchWidth cycles
	lastCycle   uint64 // latest completion seen (end-of-run cycle)
	instrCount  uint64 // dynamic instructions fetched
	recIndex    uint64 // memory records processed
	completions [depRingSize]uint64

	// robLoads holds incomplete loads in program order for the ROB and LQ
	// occupancy checks. Entries are popped once their completion is in the
	// past or once they must be waited on. Occupancy never exceeds LQ, so
	// the backing array is allocated once, at construction.
	robLoads []inflight
	// mshrs holds completion cycles of outstanding L1 misses (unordered,
	// at most L1MSHRs — preallocated likewise).
	mshrs []uint64

	st Stats
}

// New builds a core over the given memory. It panics on non-positive widths,
// which are static configuration errors.
func New(cfg Config, m Memory) *Core {
	if cfg.FetchWidth <= 0 || cfg.ROB <= 0 || cfg.LQ <= 0 || cfg.L1MSHRs <= 0 {
		panic("cpu: non-positive core configuration")
	}
	return &Core{
		cfg:      cfg,
		mem:      m,
		robLoads: make([]inflight, 0, cfg.LQ),
		mshrs:    make([]uint64, 0, cfg.L1MSHRs),
	}
}

// Reset restores the just-constructed state over a (possibly new) memory,
// reusing the core's buffers. It exists so internal/sim can pool simulated
// systems across runs.
func (c *Core) Reset(m Memory) {
	c.mem = m
	c.slotClock = 0
	c.lastCycle = 0
	c.instrCount = 0
	c.recIndex = 0
	clear(c.completions[:])
	c.robLoads = c.robLoads[:0]
	c.mshrs = c.mshrs[:0]
	c.st = Stats{}
}

// Run executes the whole trace record-by-record and returns the run
// statistics. It is the sequential reference implementation: RunBlocks must
// produce bit-identical Stats for every block size (internal/sim/difftest
// enforces this).
func (c *Core) Run(src mem.Source) Stats {
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		c.Step(a)
	}
	return c.Finish()
}

// RunBlocks executes the whole trace in blocks of up to len(buf) records,
// amortizing source dispatch and bounds checks across each block. Sources
// implementing mem.BlockSource deliver blocks natively (zero-copy for
// in-memory traces); others are drained through buf. Stats are bit-identical
// to Run for every block size.
func (c *Core) RunBlocks(src mem.Source, buf []mem.Access) Stats {
	if len(buf) == 0 {
		buf = make([]mem.Access, mem.DefaultBlockRecords)
	}
	for {
		blk := mem.FillBlock(src, buf)
		if len(blk) == 0 {
			break
		}
		for i := range blk {
			c.Step(blk[i])
		}
	}
	return c.Finish()
}

// Step executes a single record (exposed for incremental drivers).
func (c *Core) Step(a mem.Access) {
	instrs := a.Instructions()
	c.instrCount += instrs
	c.st.Instructions += instrs
	c.st.MemRecords++

	// Front end: fetch bandwidth in 1/FetchWidth cycle units.
	c.slotClock += instrs
	cycle := c.slotClock / uint64(c.cfg.FetchWidth)

	// ROB occupancy: the access cannot dispatch while an incomplete load
	// more than ROB instructions older is still outstanding. LQ: at most
	// LQ incomplete loads.
	cycle = c.drainOccupancy(cycle)

	// Address dependence.
	if a.Dep != 0 {
		dep := uint64(a.Dep)
		if dep >= depRingSize {
			dep = depRingSize - 1
		}
		if dep <= c.recIndex {
			if t := c.completions[(c.recIndex-dep)%depRingSize]; t > cycle {
				cycle = t
			}
		}
	}

	if a.Kind == mem.Load {
		// MSHR availability gates miss issue; conservatively applied
		// before the access since we cannot know hit/miss until issued.
		cycle = c.drainMSHRs(cycle)
	}

	ready, l1Miss := c.mem.Access(a, cycle)
	var done uint64
	if a.Kind == mem.Load {
		done = ready
		if l1Miss {
			c.mshrs = append(c.mshrs, done)
		}
		if done > cycle {
			c.robLoads = append(c.robLoads, inflight{index: c.instrCount, done: done})
		}
	} else {
		// Stores retire through the store queue; the fill happened at
		// issue time inside the hierarchy.
		done = cycle + 1
	}
	c.completions[c.recIndex%depRingSize] = done
	c.recIndex++
	if done > c.lastCycle {
		c.lastCycle = done
	}
	// Fetch cannot run ahead of dispatch indefinitely; re-sync the slot
	// clock so stalls propagate to the front end.
	if s := cycle * uint64(c.cfg.FetchWidth); s > c.slotClock {
		c.slotClock = s
	}
}

// drainOccupancy applies the ROB and LQ limits, advancing cycle past the
// completions that must retire first. The slice stays anchored at its
// backing array's start (pops are deferred into one compaction) so the
// preallocated capacity is never abandoned.
//
// Completed loads are pruned lazily: a stale entry (done <= cycle) is
// cycle-neutral in every max-over-done pop — entry cycles are non-decreasing
// across records, so once complete it stays complete — and only distorts the
// load-queue *count*, which binds solely at the LQ limit. So the eager
// per-record prune scan is deferred until the raw count reaches LQ, where a
// prune restores exactly the incomplete set the eager variant would hold.
// Cycle results are bit-identical; only the scan cost moves.
func (c *Core) drainOccupancy(cycle uint64) uint64 {
	// ROB: oldest incomplete load must be within ROB instructions. Stale
	// completed entries in the prefix advance nothing and are popped along
	// the way.
	pop := 0
	n := len(c.robLoads)
	for pop < n && c.instrCount-c.robLoads[pop].index >= uint64(c.cfg.ROB) {
		if d := c.robLoads[pop].done; d > cycle {
			cycle = d
		}
		pop++
	}
	if pop > 0 {
		n = copy(c.robLoads, c.robLoads[pop:])
		c.robLoads = c.robLoads[:n]
	}
	if n < c.cfg.LQ {
		return cycle
	}
	// LQ may bind: prune completed loads, then pop until under the limit.
	keep := c.robLoads[:0]
	for _, f := range c.robLoads {
		if f.done > cycle {
			keep = append(keep, f)
		}
	}
	c.robLoads = keep
	pop = 0
	for len(c.robLoads)-pop >= c.cfg.LQ {
		if d := c.robLoads[pop].done; d > cycle {
			cycle = d
		}
		pop++
	}
	if pop > 0 {
		n = copy(c.robLoads, c.robLoads[pop:])
		c.robLoads = c.robLoads[:n]
	}
	return cycle
}

// drainMSHRs waits for an MSHR if all are busy. Completed entries are pruned
// lazily, only when the raw count hits the limit — below it the gate cannot
// bind whether or not stale entries linger, and pruning at the limit leaves
// exactly the incomplete set an eager prune would, so wait cycles are
// bit-identical.
func (c *Core) drainMSHRs(cycle uint64) uint64 {
	if len(c.mshrs) < c.cfg.L1MSHRs {
		return cycle
	}
	keep := c.mshrs[:0]
	for _, t := range c.mshrs {
		if t > cycle {
			keep = append(keep, t)
		}
	}
	c.mshrs = keep
	if len(c.mshrs) < c.cfg.L1MSHRs {
		return cycle
	}
	// Wait for the earliest outstanding miss.
	min := c.mshrs[0]
	minIdx := 0
	for i, t := range c.mshrs {
		if t < min {
			min, minIdx = t, i
		}
	}
	if min > cycle {
		cycle = min
	}
	c.mshrs = append(c.mshrs[:minIdx], c.mshrs[minIdx+1:]...)
	return cycle
}

// Finish closes the run and returns final statistics.
func (c *Core) Finish() Stats {
	c.st.Cycles = c.lastCycle
	if fetch := c.slotClock / uint64(c.cfg.FetchWidth); fetch > c.st.Cycles {
		c.st.Cycles = fetch
	}
	if c.st.Cycles == 0 && c.st.Instructions > 0 {
		c.st.Cycles = 1
	}
	return c.st
}
