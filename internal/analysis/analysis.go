// Package analysis implements Step 2 of the Prophet pipeline (Section 4.2):
// turning a merged counter profile into the hints injected into the binary.
//
//   - Equation 1 (insertion): PCs whose prefetching accuracy under the
//     simplified temporal prefetcher falls below the extremely-low threshold
//     EL_ACC are marked do-not-insert; the prefetcher discards their demand
//     requests entirely.
//   - Equation 2 (replacement): remaining PCs receive a priority level
//     R(acc) in [0, 2^n) by quantizing accuracy into 2^n uniform bands
//     (accuracy below 1/2^n but above EL_ACC maps to level 0).
//   - Equation 3 (resizing): the allocated-entry counter is rounded to the
//     nearest power of two (capped at the 1MB table's entry count), then
//     converted to LLC ways; a result under half a way disables temporal
//     prefetching for the binary.
package analysis

import (
	"time"

	"prophet/internal/core"
	"prophet/internal/learning"
	"prophet/internal/mem"
	"prophet/internal/temporal"
)

// Params are the designer-chosen analysis parameters.
type Params struct {
	// ELAcc is EL_ACC, the extremely-low accuracy threshold of Equation 1.
	// The paper's sensitivity study (Figure 16a) settles on 0.15.
	ELAcc float64
	// PriorityBits is n in Equation 2 (2 in the final design, Figure 16b),
	// at most MaxPriorityBits.
	PriorityBits int
	// Table describes the metadata-table geometry for Equation 3.
	Table temporal.TableConfig
	// MaxHints caps the PC hint count at the hint-buffer size.
	MaxHints int
}

// DefaultParams returns the paper's evaluated parameters.
func DefaultParams() Params {
	return Params{
		ELAcc:        0.15,
		PriorityBits: core.PriorityBits,
		Table:        temporal.DefaultTableConfig(),
		MaxHints:     core.HintBufferEntries,
	}
}

// Result is the analysis output: the hint set to inject plus bookkeeping for
// the overhead study.
type Result struct {
	// Hints is the PC + CSR hint set for the optimized binary.
	Hints core.HintSet
	// Weights carries each hinted PC's miss contribution for hint-buffer
	// prioritization.
	Weights map[mem.Addr]uint64
	// HintInstructions is the number of hint instructions injected at the
	// program entry (Section 5.4.3: at most 128).
	HintInstructions int
	// Elapsed is the wall-clock analysis cost (Section 5.4.2: well under
	// one second).
	Elapsed time.Duration
}

// InsertDecision is Equation 1.
func InsertDecision(acc, elAcc float64) bool { return acc >= elAcc }

// MaxPriorityBits is the widest Equation 2 n: its 2^n levels fill the
// metadata table's one-byte priority. A wider n would wrap levels.
const MaxPriorityBits = 8

// PriorityLevel is Equation 2: quantize accuracy into 2^n bands. The level
// is 0 for EL_ACC <= acc < 1/2^n and 2^n - 1 for acc in the top band. n
// must be at most MaxPriorityBits.
func PriorityLevel(acc float64, bits int) uint8 {
	if bits <= 0 {
		return 0
	}
	levels := 1 << bits
	lvl := int(acc * float64(levels))
	if lvl >= levels {
		lvl = levels - 1
	}
	if lvl < 0 {
		lvl = 0
	}
	return uint8(lvl)
}

// roundPow2 rounds v to the nearest power of two (ties round up); 0 stays 0.
func roundPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	lower := uint64(1)
	for lower<<1 <= v {
		lower <<= 1
	}
	upper := lower << 1
	if v-lower < upper-v {
		return lower
	}
	return upper
}

// WaysForEntries is Equation 3: convert an allocated-entry count into LLC
// ways. The second return reports the "disable temporal prefetching"
// verdict (under half a way of demand).
func WaysForEntries(entries uint64, table temporal.TableConfig) (ways int, disable bool) {
	rounded := roundPow2(entries)
	if max := uint64(table.MaxEntries()); rounded > max {
		rounded = max
	}
	perWay := float64(table.EntriesPerWayTotal())
	ratio := float64(rounded) / perWay
	if ratio < 0.5 {
		return 0, true
	}
	ways = int(ratio)
	if float64(ways) < ratio {
		ways++
	}
	if ways > table.MaxWays {
		ways = table.MaxWays
	}
	return ways, false
}

// Analyze generates the hint set from a merged profile: Equations 1 and 2
// per profiled PC, then Equation 3 for the metadata table size.
func Analyze(p *learning.Profile, params Params) Result {
	start := time.Now()
	if params.MaxHints <= 0 {
		params.MaxHints = core.HintBufferEntries
	}
	hints := make(map[mem.Addr]core.Hint, len(p.PCs))
	weights := make(map[mem.Addr]uint64, len(p.PCs))
	for pc, prof := range p.PCs {
		acc := prof.Accuracy
		if acc < 0 {
			// The PC never triggered a prefetch under profiling:
			// no temporal evidence either way, so no hint — it
			// stays under the runtime default.
			continue
		}
		h := core.Hint{}
		if !InsertDecision(acc, params.ELAcc) {
			h = core.Hint{Insert: false, Priority: 0}
		} else {
			h = core.Hint{Insert: true, Priority: PriorityLevel(acc, params.PriorityBits)}
		}
		hints[pc] = h
		if prof.MissWeight > 0 {
			weights[pc] = uint64(prof.MissWeight + 0.5)
		}
	}
	trimHints(hints, weights, params.MaxHints)
	ways, disable := WaysForEntries(p.AllocatedEntries, params.Table)
	return Result{
		Hints: core.HintSet{
			PC:        hints,
			MetaWays:  ways,
			DisableTP: disable,
		},
		Weights:          weights,
		HintInstructions: len(hints),
		Elapsed:          time.Since(start),
	}
}

// trimHints keeps only the top max PCs by miss weight (deterministic ties).
func trimHints(hints map[mem.Addr]core.Hint, weights map[mem.Addr]uint64, max int) {
	if len(hints) <= max {
		return
	}
	buf := core.NewHintBuffer(max)
	buf.Install(hints, weights)
	for pc := range hints {
		if _, ok := buf.Lookup(pc); !ok {
			delete(hints, pc)
			delete(weights, pc)
		}
	}
}
