// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment is a named runner producing a
// Result with the same rows/series the paper reports; cmd/experiments
// renders them and bench_test.go exposes one benchmark per experiment.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator, not the authors' gem5 testbed — but each runner's
// Result carries the shape the paper's figure demonstrates and prints it as
// a "shape target" note beside the measured values. A generated
// paper-vs-measured record (EXPERIMENTS.md) waits for per-runner checks.
//
// Runners execute on the pipeline Evaluator: per-workload baselines are
// simulated once and cached, and independent (workload, scheme) runs fan
// out over a worker pool (Options.Workers). Because every run is pure and
// results are assembled by index, rendered output is byte-identical
// whatever the worker count.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"prophet/internal/graphs"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/stats"
	"prophet/internal/textplot"
	"prophet/internal/workloads"
)

// Options tune experiment cost.
type Options struct {
	// Records overrides the per-run trace length (0 = workload default).
	Records uint64
	// Quick restricts workload sets and trace lengths so the whole suite
	// runs in test-friendly time. Shapes are preserved, magnitudes shrink.
	Quick bool
	// Workers bounds the per-experiment worker pool (0 = all CPUs, 1 =
	// serial). Every experiment produces byte-identical output regardless
	// of worker count: runs are pure and results are assembled by index.
	Workers int
	// Extra appends externally supplied workloads (file: replays,
	// champsim:/csv: ingested traces) to the default-configuration
	// comparison figures (F10–F12, F15).
	Extra []ExtraWorkload
}

// ExtraWorkload is one externally supplied comparison workload: a label and
// a factory of fresh deterministic sources (prophet.Workload.SourceFactory
// provides one for any resolvable name). Under one Options, the label also
// names the trace: two extras with the same Name must yield the same trace.
type ExtraWorkload struct {
	Name    string
	Factory func() mem.Source
}

// workers resolves the worker-pool width.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// quickRecords is the trace length used in Quick mode.
const quickRecords = 90_000

// quickScale shrinks workload sequence lengths in Quick mode so several
// sequence passes still fit the shorter traces.
const quickScale = 35

func (o Options) records(def uint64) uint64 {
	if o.Records != 0 {
		return o.Records
	}
	if o.Quick {
		if def != 0 && def < quickRecords {
			return def
		}
		return quickRecords
	}
	return def
}

// traceKey names a catalog workload's trace under these options: the key of
// the evaluator's baseline memo and of the sweep's job grouping. It carries
// the options that shape the trace, so a baseline simulated under one
// Options (a Quick-scaled spec, another length) never answers for another's.
func (o Options) traceKey(name string) string {
	return fmt.Sprintf("%s@records=%d,quick=%t", name, o.Records, o.Quick)
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier (T1, F1, F6, F8, F10..F19, OV, ST, EN).
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Labels are the x-axis entries (typically workload names).
	Labels []string
	// Series hold one named value per label (bars in the figure).
	Series []textplot.Series
	// Tables carry tabular artifacts (Table 1, storage, overheads).
	Tables []textplot.Table
	// Notes are free-form findings appended to the rendering.
	Notes []string
}

// Render formats the result for terminal output.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Series) > 0 {
		b.WriteString(textplot.Chart("", r.Labels, r.Series, 40))
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
	}
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Value returns the value of a series at a label (helper for tests).
func (r Result) Value(series, label string) (float64, bool) {
	li := -1
	for i, l := range r.Labels {
		if l == label {
			li = i
			break
		}
	}
	if li < 0 {
		return 0, false
	}
	for _, s := range r.Series {
		if s.Name == series && li < len(s.Values) {
			return s.Values[li], true
		}
	}
	return 0, false
}

// Runner is an experiment entry point.
type Runner func(Options) Result

// registryEntry pairs an ID with its runner, in paper order.
type registryEntry struct {
	ID     string
	Run    Runner
	Remark string
}

// Registry returns every experiment in paper order.
func Registry() []registryEntry {
	return []registryEntry{
		{"T1", Table1, "system configuration"},
		{"F1", Figure1, "metadata access pattern vs PatternConf"},
		{"F6", Figure6, "per-PC accuracy levels (omnetpp)"},
		{"F8", Figure8, "Markov target distribution"},
		{"F10", Figure10, "SPEC IPC speedup"},
		{"F11", Figure11, "SPEC DRAM traffic"},
		{"F12", Figure12, "coverage and accuracy"},
		{"F13", Figure13, "gcc input learning"},
		{"F14", Figure14, "astar/soplex learning"},
		{"F15", Figure15, "CRONO graph workloads"},
		{"F16a", Figure16a, "EL_ACC sensitivity"},
		{"F16b", Figure16b, "priority bits sensitivity"},
		{"F16c", Figure16c, "MVB candidates sensitivity"},
		{"F17", Figure17, "IPCP L1 prefetcher"},
		{"F18", Figure18, "DRAM channel sensitivity"},
		{"F19", Figure19, "Prophet feature breakdown"},
		{"OV", Overheads, "profiling/analysis/instruction overhead"},
		{"ST", StorageOverhead, "storage overhead"},
		{"EN", EnergyOverhead, "energy overhead"},
	}
}

// Lookup finds an experiment's runner by ID, ignoring case.
func Lookup(id string) (Runner, error) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (Result, error) {
	run, err := Lookup(id)
	if err != nil {
		return Result{}, err
	}
	return run(opts), nil
}

// specSet returns the SPEC workload list for the options.
func specSet(opts Options) []workloads.Workload {
	all := workloads.SPEC()
	if !opts.Quick {
		return all
	}
	// Quick mode keeps the three workloads whose stories dominate the
	// paper's analysis: mcf (insertion), omnetpp (replacement/Figure 1),
	// soplex (MVB) — scaled so sequences repeat within short traces.
	var out []workloads.Workload
	for _, w := range all {
		switch w.Name {
		case "mcf", "omnetpp", "soplex_pds-50":
			out = append(out, w.Scaled(quickScale))
		}
	}
	return out
}

// graphSet returns the CRONO workload list for the options.
func graphSet(opts Options) []graphs.Workload {
	all := graphs.CRONO()
	if !opts.Quick {
		return all
	}
	var out []graphs.Workload
	for _, g := range all {
		switch g.Name {
		case "bfs_80000_8", "sssp_100000_5", "pagerank_100000_100":
			out = append(out, g)
		}
	}
	return out
}

// factoryFor adapts a SPEC workload to a pipeline source factory.
func factoryFor(w workloads.Workload, opts Options) pipeline.SourceFactory {
	records := opts.records(w.Spec.Records)
	return func() mem.Source { return w.Source(records) }
}

// graphFactory adapts a graph workload.
func graphFactory(g graphs.Workload, opts Options) pipeline.SourceFactory {
	records := opts.records(graphs.DefaultRecords)
	return func() mem.Source { return g.Source(records) }
}

// withGeomean appends a geomean label and extends each series with its
// geometric mean.
func withGeomean(labels []string, series []textplot.Series) ([]string, []textplot.Series) {
	labels = append(labels, "Geomean")
	for i := range series {
		series[i].Values = append(series[i].Values, geomean(series[i].Values))
	}
	return labels, series
}

func geomean(xs []float64) float64 { return stats.Geomean(xs) }

func sortedPCs(m map[mem.Addr]float64) []mem.Addr {
	out := make([]mem.Addr, 0, len(m))
	for pc := range m {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
