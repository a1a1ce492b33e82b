package workloads

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"prophet/internal/mem"
)

// Workload is a named, runnable workload.
type Workload struct {
	// Name is the benchmark_input identifier used throughout the figures.
	Name string
	// Spec is the generator description.
	Spec Spec
}

// Source returns a fresh deterministic trace of the given length in memory
// records (the spec default when records == 0).
func (w Workload) Source(records uint64) mem.Source {
	return NewGenerator(w.Spec, records)
}

// Scaled returns a copy of the workload with sequence lengths and the
// default trace length scaled to pct percent. Pattern mix, PCs and seeds are
// unchanged, so hints still attach to the same instructions; quick test
// modes use this to keep multiple sequence passes inside short traces.
func (w Workload) Scaled(pct int) Workload {
	if pct <= 0 || pct == 100 {
		return w
	}
	out := w
	out.Spec.Patterns = append([]PatternSpec(nil), w.Spec.Patterns...)
	for i := range out.Spec.Patterns {
		p := &out.Spec.Patterns[i]
		if p.SeqLines > 0 {
			p.SeqLines = p.SeqLines * pct / 100
			if p.SeqLines < 64 {
				p.SeqLines = 64
			}
		}
	}
	out.Spec.Records = w.Spec.Records * uint64(pct) / 100
	if out.Spec.Records < 10_000 {
		out.Spec.Records = 10_000
	}
	return out
}

// DefaultRecords is the evaluation trace length per run. It stands in for
// the paper's 50M-instruction SimPoint windows at a scale that keeps the
// full figure suite runnable in seconds; the access-pattern structure, not
// the raw length, determines the relative results.
const DefaultRecords = 220_000

// spec assembles a Spec with the shared defaults.
func spec(name string, seed uint64, patterns ...PatternSpec) Workload {
	return Workload{Name: name, Spec: Spec{Name: name, Seed: seed, Patterns: patterns, Records: DefaultRecords}}
}

// SPEC returns the seven irregular SPEC-CPU-like workloads of Figures 10-12
// and 16-19. Each workload's doc comment states its encoded properties.
func SPEC() []Workload {
	return []Workload{
		AstarBiglakes(),
		GCC("166"),
		MCF(),
		Omnetpp(),
		Soplex("pds-50"),
		Sphinx3(),
		Xalancbmk(),
	}
}

// AstarBiglakes: pointer chasing over medium maps plus temporal reuse.
// Bandwidth-sensitive: heavy miss traffic with tight gaps, so inaccurate
// prefetching backfires (Figure 16c, Section 5.9).
func AstarBiglakes() Workload {
	return spec("astar_biglakes", 101,
		PatternSpec{Kind: PointerChase, Weight: 0.30, SeqLines: 22000, Gap: 4, PCSeed: 110},
		PatternSpec{Kind: PointerChase, Weight: 0.18, SeqLines: 15000, Gap: 4, PCSeed: 111},
		PatternSpec{Kind: Temporal, Weight: 0.22, SeqLines: 18000, Gap: 4, PCSeed: 112},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.12, SeqLines: 9000, NoiseRatio: 0.25, Gap: 4, PCSeed: 113},
		PatternSpec{Kind: StreamScan, Weight: 0.06, Gap: 4, PCSeed: 114},
		PatternSpec{Kind: RandomAccess, Weight: 0.12, Gap: 4, PCSeed: 115},
	)
}

// AstarRivers is the second astar input (Figure 14): the same instructions
// (shared PCSeeds = shared PCs and hint targets) over a differently shaped
// map — sequence lengths and mix shift, behaviour classes stay.
func AstarRivers() Workload {
	return spec("astar_rivers", 102,
		PatternSpec{Kind: PointerChase, Weight: 0.34, SeqLines: 15000, Gap: 4, PCSeed: 110, SeqSeed: 210},
		PatternSpec{Kind: PointerChase, Weight: 0.14, SeqLines: 24000, Gap: 4, PCSeed: 111, SeqSeed: 211},
		PatternSpec{Kind: Temporal, Weight: 0.24, SeqLines: 12000, Gap: 4, PCSeed: 112, SeqSeed: 212},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.10, SeqLines: 11000, NoiseRatio: 0.22, Gap: 4, PCSeed: 113, SeqSeed: 213},
		PatternSpec{Kind: StreamScan, Weight: 0.06, Gap: 4, PCSeed: 114},
		PatternSpec{Kind: RandomAccess, Weight: 0.12, Gap: 4, PCSeed: 115},
	)
}

// gccInput describes how one gcc input exercises the shared binary
// (Figure 7's three cases).
type gccInput struct {
	name string
	seed uint64
	// loadEKind is the behaviour of the shared "Load E" PCs, which depend
	// on the input's global execution context.
	loadEKind  PatternKind
	loadENoise float64
	loadESeed  uint64 // sequence seed: inputs with equal seeds behave alike
	// specificSeed gives the input-specific PCs ("Loads B/C").
	specificSeed uint64
	seqScale     int // percent scaling of shared sequence lengths
}

var gccInputs = []gccInput{
	{name: "166", seed: 301, loadEKind: Temporal, loadESeed: 420, specificSeed: 520, seqScale: 100},
	{name: "200", seed: 302, loadEKind: NoisyTemporal, loadENoise: 0.65, loadESeed: 421, specificSeed: 521, seqScale: 110},
	{name: "cpdecl", seed: 303, loadEKind: RandomAccess, loadESeed: 422, specificSeed: 522, seqScale: 90},
	{name: "expr", seed: 304, loadEKind: NoisyTemporal, loadENoise: 0.65, loadESeed: 421, specificSeed: 523, seqScale: 105},
	{name: "expr2", seed: 305, loadEKind: RandomAccess, loadESeed: 423, specificSeed: 524, seqScale: 95},
	{name: "g23", seed: 306, loadEKind: Temporal, loadESeed: 424, specificSeed: 525, seqScale: 120},
	{name: "s04", seed: 307, loadEKind: NoisyTemporal, loadENoise: 0.6, loadESeed: 425, specificSeed: 526, seqScale: 100},
	{name: "scilab", seed: 308, loadEKind: Temporal, loadESeed: 426, specificSeed: 527, seqScale: 85},
	{name: "typeck", seed: 309, loadEKind: RandomAccess, loadESeed: 427, specificSeed: 528, seqScale: 100},
}

// GCC returns the gcc workload for the given input name (Figure 13's nine
// inputs). The binary's structure follows Figure 7:
//
//   - "Load A" PCs (PCSeed 410-412) run identically under every input:
//     hints learned once transfer everywhere;
//   - "Load B/C" PCs (input-specific seeds) only execute under their input;
//   - "Load E" PCs (PCSeed 415-416) execute everywhere but their behaviour
//     depends on the input (gcc_200 and gcc_expr share it, which is why
//     learning expr also helps 200).
func GCC(input string) Workload {
	var in *gccInput
	for i := range gccInputs {
		if gccInputs[i].name == input {
			in = &gccInputs[i]
			break
		}
	}
	if in == nil {
		panic(fmt.Sprintf("workloads: unknown gcc input %q", input))
	}
	scale := func(n int) int { return n * in.seqScale / 100 }
	return spec("gcc_"+input, in.seed,
		// Load A: shared behaviour, shared sequences.
		PatternSpec{Kind: Temporal, Weight: 0.18, SeqLines: scale(16000), Gap: 5, PCSeed: 410, SeqSeed: 410},
		PatternSpec{Kind: PointerChase, Weight: 0.15, SeqLines: scale(12000), Gap: 5, PCSeed: 411, SeqSeed: 411},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.12, SeqLines: scale(8000), NoiseRatio: 0.35, Gap: 5, PCSeed: 412, SeqSeed: 412},
		// Loads B/C: input-specific instructions.
		PatternSpec{Kind: Temporal, Weight: 0.12, SeqLines: scale(10000), Gap: 5, PCSeed: in.specificSeed, SeqSeed: in.specificSeed},
		PatternSpec{Kind: RandomAccess, Weight: 0.15, Gap: 5, PCSeed: in.specificSeed + 1000},
		// Load E: shared PC, input-dependent behaviour.
		PatternSpec{Kind: in.loadEKind, Weight: 0.14, SeqLines: scale(9000), NoiseRatio: in.loadENoise, Gap: 5, PCSeed: 415, SeqSeed: in.loadESeed},
		PatternSpec{Kind: in.loadEKind, Weight: 0.08, SeqLines: scale(6000), NoiseRatio: in.loadENoise, Gap: 5, PCSeed: 416, SeqSeed: in.loadESeed + 50},
		// Background scan.
		PatternSpec{Kind: StreamScan, Weight: 0.08, Gap: 5, PCSeed: 417},
	)
}

// GCCInputNames lists the nine gcc inputs in Figure 13 order.
func GCCInputNames() []string {
	out := make([]string, len(gccInputs))
	for i, in := range gccInputs {
		out[i] = in.name
	}
	return out
}

// MCF: very large pointer-chasing working set with computed prefetch
// kernels. Its metadata footprint exceeds the 1MB table, Triangel's sampled
// resizing underprovisions it, RPG2 finds no stride kernels, and filtering
// the random PC is worth a lot (Figure 19: +Insert gives mcf +16.72%).
func MCF() Workload {
	w := spec("mcf", 501,
		PatternSpec{Kind: PointerChase, Weight: 0.22, SeqLines: 16000, Gap: 3, PCSeed: 610},
		PatternSpec{Kind: PointerChase, Weight: 0.16, SeqLines: 11000, Gap: 3, PCSeed: 611},
		PatternSpec{Kind: IndirectComputed, Weight: 0.18, SeqLines: 9000, Gap: 3, PCSeed: 612},
		PatternSpec{Kind: Temporal, Weight: 0.10, SeqLines: 12000, Gap: 3, PCSeed: 613},
		PatternSpec{Kind: RandomAccess, Weight: 0.17, Gap: 3, PCSeed: 614},
		PatternSpec{Kind: RandomAccess, Weight: 0.08, Gap: 3, PCSeed: 616},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.09, SeqLines: 7000, NoiseRatio: 0.6, Gap: 3, PCSeed: 617},
		PatternSpec{Kind: StreamScan, Weight: 0.04, Gap: 3, PCSeed: 615},
	)
	// mcf's defining property is a metadata footprint near table capacity;
	// a longer trace lets the junk PCs build that pressure.
	w.Spec.Records = 400_000
	return w
}

// Omnetpp: discrete-event simulation — interleaved useful/useless temporal
// accesses with high reuse-distance variance (the Figure 1 pattern), plus
// pointer-chased event structures. Sensitive to cache pollution.
func Omnetpp() Workload {
	return spec("omnetpp", 502,
		PatternSpec{Kind: NoisyTemporal, Weight: 0.24, SeqLines: 14000, NoiseRatio: 0.40, Gap: 4, PCSeed: 620},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.18, SeqLines: 10000, NoiseRatio: 0.35, Gap: 4, PCSeed: 621},
		PatternSpec{Kind: PointerChase, Weight: 0.20, SeqLines: 15000, Gap: 4, PCSeed: 622},
		PatternSpec{Kind: Temporal, Weight: 0.10, SeqLines: 11000, Gap: 4, PCSeed: 623},
		PatternSpec{Kind: RandomAccess, Weight: 0.12, Gap: 4, PCSeed: 624},
		PatternSpec{Kind: StreamScan, Weight: 0.08, Gap: 4, PCSeed: 625},
		// A marginal instruction: ~10% accuracy, between the Figure 16a
		// EL_ACC candidates — keeping it pollutes, dropping it at 0.25
		// also drops its residual coverage.
		PatternSpec{Kind: NoisyTemporal, Weight: 0.08, SeqLines: 6000, NoiseRatio: 0.7, Gap: 4, PCSeed: 626},
	)
}

// Soplex: sparse LP solving — multi-path Markov sequences from pivoting
// (the Multi-path Victim Buffer's headline case, Figure 19: +13.46%).
func Soplex(input string) Workload {
	switch input {
	case "pds-50":
		return spec("soplex_pds-50", 503,
			PatternSpec{Kind: MultiPath, Weight: 0.28, SeqLines: 8000, Paths: 2, Gap: 4, PCSeed: 630, SeqSeed: 630, Serial: true, Clones: 2},
			PatternSpec{Kind: MultiPath, Weight: 0.20, SeqLines: 6000, Paths: 3, Gap: 4, PCSeed: 631, SeqSeed: 631, Serial: true, Clones: 2},
			PatternSpec{Kind: PointerChase, Weight: 0.20, SeqLines: 9000, Gap: 4, PCSeed: 632, SeqSeed: 632, Clones: 2},
			PatternSpec{Kind: StreamScan, Weight: 0.12, Gap: 4, PCSeed: 633},
			PatternSpec{Kind: RandomAccess, Weight: 0.10, Gap: 4, PCSeed: 634},
			PatternSpec{Kind: NoisyTemporal, Weight: 0.10, SeqLines: 6000, NoiseRatio: 0.25, Gap: 4, PCSeed: 635, SeqSeed: 635},
		)
	case "ref":
		return spec("soplex_ref", 504,
			PatternSpec{Kind: MultiPath, Weight: 0.30, SeqLines: 5500, Paths: 2, Gap: 4, PCSeed: 630, SeqSeed: 730, Serial: true, Clones: 2},
			PatternSpec{Kind: MultiPath, Weight: 0.18, SeqLines: 7500, Paths: 2, Gap: 4, PCSeed: 631, SeqSeed: 731, Serial: true, Clones: 2},
			PatternSpec{Kind: PointerChase, Weight: 0.22, SeqLines: 6500, Gap: 4, PCSeed: 632, SeqSeed: 732, Clones: 2},
			PatternSpec{Kind: StreamScan, Weight: 0.10, Gap: 4, PCSeed: 633},
			PatternSpec{Kind: RandomAccess, Weight: 0.10, Gap: 4, PCSeed: 634},
			PatternSpec{Kind: NoisyTemporal, Weight: 0.10, SeqLines: 7000, NoiseRatio: 0.22, Gap: 4, PCSeed: 635, SeqSeed: 735},
		)
	}
	panic(fmt.Sprintf("workloads: unknown soplex input %q", input))
}

// Sphinx3: speech recognition — compact temporal working set well under the
// 1MB table, so profile-guided resizing returns LLC ways (Figure 19's
// +Resize case), plus scan-heavy acoustic scoring.
func Sphinx3() Workload {
	return spec("sphinx3", 505,
		PatternSpec{Kind: Temporal, Weight: 0.20, SeqLines: 9000, Gap: 6, PCSeed: 640},
		PatternSpec{Kind: Temporal, Weight: 0.16, SeqLines: 8000, Gap: 6, PCSeed: 641},
		PatternSpec{Kind: PointerChase, Weight: 0.14, SeqLines: 7000, Gap: 6, PCSeed: 642},
		PatternSpec{Kind: Temporal, Weight: 0.12, SeqLines: 6000, Gap: 6, PCSeed: 646},
		PatternSpec{Kind: StreamScan, Weight: 0.24, SeqLines: 8000, Gap: 6, PCSeed: 643},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.10, SeqLines: 5000, NoiseRatio: 0.2, Gap: 6, PCSeed: 644},
		PatternSpec{Kind: RandomAccess, Weight: 0.04, Gap: 6, PCSeed: 645},
	)
}

// Xalancbmk: XML transformation — long temporal chains through the DOM with
// moderate noise.
func Xalancbmk() Workload {
	return spec("xalancbmk", 506,
		PatternSpec{Kind: Temporal, Weight: 0.24, SeqLines: 18000, Gap: 4, PCSeed: 650},
		PatternSpec{Kind: Temporal, Weight: 0.16, SeqLines: 13000, Gap: 4, PCSeed: 651},
		PatternSpec{Kind: PointerChase, Weight: 0.20, SeqLines: 11000, Gap: 4, PCSeed: 652},
		PatternSpec{Kind: NoisyTemporal, Weight: 0.14, SeqLines: 9000, NoiseRatio: 0.3, Gap: 4, PCSeed: 653},
		PatternSpec{Kind: StreamScan, Weight: 0.10, Gap: 4, PCSeed: 654},
		PatternSpec{Kind: RandomAccess, Weight: 0.16, Gap: 4, PCSeed: 655},
	)
}

// Get resolves any catalog workload by name (SPEC set, all gcc inputs,
// astar and soplex inputs).
func Get(name string) (Workload, bool) {
	all := catalog()
	i, ok := slices.BinarySearchFunc(all, name, func(w Workload, name string) int { return strings.Compare(w.Name, name) })
	if !ok {
		return Workload{}, false
	}
	return all[i].clone(), true
}

// All returns every catalog workload, sorted by name.
func All() []Workload {
	out := slices.Clone(catalog())
	for i := range out {
		out[i] = out[i].clone()
	}
	return out
}

// catalog builds every catalog workload once, sorted by name. Get and All
// hand out clones, so a caller that edits a workload's patterns changes its
// own copy only.
var catalog = sync.OnceValue(func() []Workload {
	out := append(SPEC(), AstarRivers(), Soplex("ref"))
	for _, in := range gccInputs {
		if in.name != "166" {
			out = append(out, GCC(in.name))
		}
	}
	slices.SortFunc(out, func(a, b Workload) int { return strings.Compare(a.Name, b.Name) })
	return out
})

// clone copies w with its own Patterns.
func (w Workload) clone() Workload {
	w.Spec.Patterns = slices.Clone(w.Spec.Patterns)
	return w
}
