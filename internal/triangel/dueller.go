package triangel

import (
	"prophet/internal/mem"
	"prophet/internal/temporal"
)

// dueller is the Set Dueller resizing monitor (Section 2.1.3): it samples a
// subset of cache sets and maintains, for both the demand LLC and the
// metadata table, Mattson stack-distance histograms over full-associativity
// shadow tags. At each epoch it picks the way partition that maximizes the
// estimated combined hit utility — "simulating various partitioning
// configurations for the cache and the Markov table, evaluating their
// respective hit rates" with ~2KB of sampled state in hardware.
//
// Sampling only a few sets is precisely why the estimate can lag program
// behaviour; the Prophet paper observes the resulting allocations are often
// too conservative on omnetpp and mcf. That emerges here naturally: the
// histograms describe the previous epoch, not the future.
//
// The shadow stacks are flat: one array per monitor holds a stack for each
// sampled set, set after set, with each stack's depth beside it, so a reset
// clears a few counters instead of reallocating per-set slices.
type dueller struct {
	tableCfg   temporal.TableConfig
	metaWeight float64

	llc     []mem.Line              // duellerSets stacks of duellerLLCWays lines
	llcLen  [duellerSets]int        // live depth of each LLC stack
	llcHist [duellerLLCWays]float64 // hits by stack position (way)

	meta      []uint32         // duellerSets stacks of metaDepth sources
	metaDepth int              // EntriesPerWay x MaxWays: the table's associativity
	metaLen   [duellerSets]int // live depth of each metadata stack
	metaHist  []float64        // hits by stack position in way-granularity
}

const (
	duellerLLCWays = 16
	duellerDecay   = 0.5
	sampleShift    = 6 // sample 1/64 of sets
	// duellerSets is the count of sampled sets among the LLC's 2048.
	duellerSets = 2048 >> sampleShift
)

// reset readies d for a run at tableCfg's geometry with the given metadata
// weight, with empty stacks and histograms, reusing its arrays when they
// are large enough. Stack slots past a stack's depth are never read.
func (d *dueller) reset(tableCfg temporal.TableConfig, metaWeight float64) {
	depth := tableCfg.EntriesPerWay * tableCfg.MaxWays
	*d = dueller{
		tableCfg:   tableCfg,
		metaWeight: metaWeight,
		llc:        d.llc,
		meta:       d.meta,
		metaDepth:  depth,
		metaHist:   d.metaHist,
	}
	if d.llc == nil {
		d.llc = make([]mem.Line, duellerSets*duellerLLCWays)
	}
	if n := duellerSets * depth; cap(d.meta) < n {
		d.meta = make([]uint32, n)
	}
	if cap(d.metaHist) < tableCfg.MaxWays {
		d.metaHist = make([]float64, tableCfg.MaxWays)
	}
	d.metaHist = d.metaHist[:tableCfg.MaxWays]
	clear(d.metaHist)
}

// sampled returns the monitor slot of the set that key maps to among the
// LLC's 2048, or false when that set is not sampled.
func sampled(key uint64) (int, bool) {
	set := key & 2047
	if set&(1<<sampleShift-1) != 0 {
		return 0, false
	}
	return int(set >> sampleShift), true
}

// observeLLC feeds a demand LLC access (an L2 miss) into the LLC monitor.
// The Mattson stack updates move-to-front in place — the shadow stacks are
// long-lived and must not allocate per sampled access.
func (d *dueller) observeLLC(l mem.Line) {
	k, ok := sampled(uint64(l))
	if !ok {
		return
	}
	stack := d.llc[k*duellerLLCWays : k*duellerLLCWays+d.llcLen[k]]
	pos := -1
	for i, x := range stack {
		if x == l {
			pos = i
			break
		}
	}
	if pos >= 0 {
		d.llcHist[pos]++
		// Move-to-front: rotate [0, pos] right by one.
		copy(stack[1:pos+1], stack[:pos])
		stack[0] = l
		return
	}
	if len(stack) < duellerLLCWays {
		d.llcLen[k]++
		stack = stack[:len(stack)+1]
	}
	// Prepend, dropping the coldest entry when already full.
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = l
}

// observeMeta feeds a metadata insertion/access into the metadata monitor.
func (d *dueller) observeMeta(src uint32) {
	k, ok := sampled(uint64(src))
	if !ok {
		return
	}
	stack := d.meta[k*d.metaDepth : k*d.metaDepth+d.metaLen[k]]
	pos := -1
	for i, x := range stack {
		if x == src {
			pos = i
			break
		}
	}
	if pos >= 0 {
		way := pos / d.tableCfg.EntriesPerWay
		if way < len(d.metaHist) {
			d.metaHist[way]++
		}
		copy(stack[1:pos+1], stack[:pos])
		stack[0] = src
		return
	}
	if len(stack) < d.metaDepth {
		d.metaLen[k]++
		stack = stack[:len(stack)+1]
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = src
}

// choose returns the metadata way allocation maximizing estimated utility:
// sum of LLC hits with (16 - w) ways plus weighted metadata hits with w ways.
// Histograms decay afterwards so stale phases age out.
func (d *dueller) choose(current int) int {
	best, bestVal := current, -1.0
	maxMeta := d.tableCfg.MaxWays
	for w := 0; w <= maxMeta; w++ {
		llcWays := duellerLLCWays - w
		val := 0.0
		for i := 0; i < llcWays && i < len(d.llcHist); i++ {
			val += d.llcHist[i]
		}
		for i := 0; i < w && i < len(d.metaHist); i++ {
			val += d.metaWeight * d.metaHist[i]
		}
		if val > bestVal {
			best, bestVal = w, val
		}
	}
	for i := range d.llcHist {
		d.llcHist[i] *= duellerDecay
	}
	for i := range d.metaHist {
		d.metaHist[i] *= duellerDecay
	}
	return best
}
