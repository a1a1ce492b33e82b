// Package prophet is the public API of the Prophet reproduction: a
// profile-guided temporal prefetching framework (Li et al., ISCA 2025)
// implemented on top of a trace-driven CPU/cache/DRAM simulator.
//
// The package exposes three layers:
//
//   - Workload catalog: the SPEC-CPU-like irregular workloads and
//     CRONO-style graph workloads of the paper's evaluation, resolved by
//     name (Workload, Catalog, Find).
//   - Evaluator: a stateful evaluation service (New) that owns a pluggable
//     scheme registry, a per-workload baseline cache, and a concurrent
//     sweep engine. Run executes one (workload, scheme) pair; Sweep fans a
//     job list out over a worker pool — or, with WithBackends, shards it
//     across a fleet of remote prophetd daemons — with deterministic,
//     ordered results.
//   - Session: the stateful Figure 5 loop — Profile inputs with the
//     simplified prefetcher, learn counters across inputs, Optimize into a
//     Binary, and Run it on any workload, reusing the evaluator's cached
//     baselines.
//
// Everything is deterministic: the same calls return bit-identical results,
// whether a sweep runs on one worker or sixteen.
//
// Quickstart:
//
//	ev := prophet.New(prophet.WithELAcc(0.15), prophet.WithWorkers(8))
//	w, _ := prophet.Find("omnetpp")
//	r, _ := ev.Run(context.Background(), w, prophet.Prophet)
//	fmt.Printf("Prophet speedup: %.2fx\n", r.Speedup)
//
//	// Sweep several workloads and schemes concurrently; the baseline for
//	// each workload is simulated once and shared across schemes.
//	mcf, _ := prophet.Find("mcf")
//	results, _ := ev.Sweep(context.Background(),
//		prophet.Jobs([]prophet.Workload{w, mcf}, prophet.Triangel, prophet.Prophet)...)
//
// The profile-guided pipeline (Figure 5) runs through a Session:
//
//	s := ev.NewSession()
//	s.Profile(w)
//	bin := s.Optimize()
//	r, _ := s.Run(context.Background(), bin, w)
//
// Custom prefetching schemes plug in through RegisterScheme; the built-in
// schemes (baseline, triage, triangel, rpg2, prophet) self-register from
// their packages the same way.
package prophet

import (
	"context"
	"fmt"
	"os"

	"prophet/internal/analysis"
	"prophet/internal/graphs"
	"prophet/internal/ingest"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/workloads"
)

// Workload identifies a runnable workload from the catalog. The zero value
// is invalid; construct with Find, or fill Name directly — resolution
// happens lazily at run time, and unknown names surface as errors from
// Evaluator.Run (never a panic).
//
// Beyond the catalog, an ingest-format prefix names a recorded trace file:
// "file:<path>" replays an exported trace (cmd/tracegen output, plain or
// gzip), and "champsim:<path>" or "csv:<path>" converts a third-party one
// through internal/ingest — so recorded traces run through the same
// Evaluator/Sweep/daemon machinery as generated ones. Sources lists the
// full prefix table.
type Workload struct {
	// Name is the catalog identifier ("mcf", "gcc_166", "bfs_100000_16")
	// or a trace-file reference like "file:<path>" or "champsim:<path>".
	Name string
	// Records is the trace length in memory records (0 = catalog default).
	Records uint64
}

// Catalog lists every available workload name: the SPEC-like set, all gcc /
// astar / soplex inputs, and the CRONO graph workloads.
func Catalog() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	for _, g := range graphs.CRONO() {
		out = append(out, g.Name)
	}
	return out
}

// WorkloadInfo describes one catalog entry — what tooling (the prophetd
// daemon's GET /v1/workloads, scripted sweeps) needs to enumerate and size
// runs without resolving each workload by hand.
type WorkloadInfo struct {
	// Name is the catalog identifier, resolvable by Find.
	Name string `json:"name"`
	// Kind is "spec" for the SPEC-CPU-like generators or "graph" for the
	// CRONO graph workloads.
	Kind string `json:"kind"`
	// DefaultRecords is the trace length used when Workload.Records is 0.
	DefaultRecords uint64 `json:"defaultRecords"`
}

// CatalogInfo lists every catalog workload with its metadata, in Catalog
// order (SPEC-like set first, then the CRONO graphs).
func CatalogInfo() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{Name: w.Name, Kind: "spec", DefaultRecords: w.Spec.Records})
	}
	for _, g := range graphs.CRONO() {
		out = append(out, WorkloadInfo{Name: g.Name, Kind: "graph", DefaultRecords: graphs.DefaultRecords})
	}
	return out
}

// Find resolves a workload by name, validating it against the catalog.
// Graph workloads follow the algorithm_nodes_param grammar and need not be
// in the CRONO set.
func Find(name string) (Workload, error) {
	w := Workload{Name: name}
	if _, err := w.factory(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// WithRecords returns a copy of the workload with an explicit trace length.
// The copy stays fully resolvable: because resolution is lazy, there is no
// way to end up with a workload whose override silently dropped — an
// unresolvable name errors out at Run time instead.
func (w Workload) WithRecords(records uint64) Workload {
	w.Records = records
	return w
}

// factory resolves the workload name to a trace factory. Every call
// re-resolves, so hand-constructed Workload values work and errors surface
// where the workload is used.
func (w Workload) factory() (pipeline.SourceFactory, error) {
	if w.Name == "" {
		return nil, fmt.Errorf("prophet: empty workload name")
	}
	records := w.Records
	if wl, ok := workloads.Get(w.Name); ok {
		return func() mem.Source { return wl.Source(records) }, nil
	}
	if g, err := graphs.Parse(w.Name); err == nil {
		return func() mem.Source { return g.Source(records) }, nil
	}
	if f, path, ok := ingest.Split(w.Name); ok {
		// A recorded trace is read and validated once, packed, through
		// the packed-trace memo; the factory then replays it from memory,
		// so the multi-pass schemes (RPG2, Prophet) and multi-scheme
		// sweeps over one file see identical streams without re-reading
		// the file. A shorter record budget replays a prefix view of the
		// same chunks, never a second copy.
		trace, err := readTraceCached(f, path)
		if err != nil {
			return nil, fmt.Errorf("prophet: workload %q: %w", w.Name, err)
		}
		trace = trace.Prefix(records)
		return func() mem.Source { return trace.Source() }, nil
	}
	return nil, fmt.Errorf("prophet: unknown workload %q", w.Name)
}

// externalPath returns the on-disk path behind a workload backed by a
// mutable trace file — every registered ingest format, "file:" included —
// or "" for catalog/graph workloads. Dispatch pinning (backends.go) and the
// durable result store (store.go) both branch on this: trace files exist
// only on the local host and can change under the same name.
func externalPath(name string) string {
	_, path, _ := ingest.Split(name)
	return path
}

// fileStamp is the identity suffix of an on-disk trace: "#<size>.<mtime>".
func fileStamp(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("#%d.%d", fi.Size(), fi.ModTime().UnixNano()), nil
}

// stamp is the fileStamp of a workload backed by an on-disk file (file:,
// champsim:, csv:), or "" for catalog and graph workloads and for a file
// that cannot be stat'ed, which fails resolution instead.
func (w Workload) stamp() string {
	if path := externalPath(w.Name); path != "" {
		if st, err := fileStamp(path); err == nil {
			return st
		}
	}
	return ""
}

// readTraceCached reads a trace file through the packed-trace memo
// (mem.Traces), keyed by format, path, size and mtime. Without it, every
// factory() resolution — one per Find, one per sweep job — would re-read
// and re-decode the whole file. The packed trace is shared read-only across
// callers (each replay holds only a cursor).
func readTraceCached(f ingest.Format, path string) (*mem.Packed, error) {
	st, err := fileStamp(path)
	if err != nil {
		return nil, err
	}
	return mem.Traces.Do(context.Background(), f.Name+":"+path+st, func() (*mem.Packed, error) {
		return ingest.Read(f, path)
	})
}

// key identifies the workload's exact trace for baseline caching. Records
// is normalized to the effective trace length, so the catalog default asked
// for explicitly and as 0 share one cache entry — the traces are identical.
// For workloads backed by an on-disk file (file:, champsim:, csv:) the key
// carries the file's size and mtime: a regenerated trace under the same path
// is a different trace and must not inherit the old baseline in a
// long-lived process (prophetd).
func (w Workload) key() string {
	records := w.Records
	if records == 0 {
		if wl, ok := workloads.Get(w.Name); ok {
			records = wl.Spec.Records
		} else if _, err := graphs.Parse(w.Name); err == nil {
			records = graphs.DefaultRecords
		}
	}
	return fmt.Sprintf("%s@%d%s", w.Name, records, w.stamp())
}

// Open returns a fresh deterministic trace source for the workload — the
// raw record stream the simulator consumes (used by tooling such as
// cmd/tracegen).
func (w Workload) Open() (mem.Source, error) {
	f, err := w.factory()
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// SourceFactory resolves the workload once and returns a factory of fresh
// deterministic trace sources — what multi-pass consumers (the experiments
// suite, custom pipelines) need, since a mem.Source is single-use.
func (w Workload) SourceFactory() (func() mem.Source, error) {
	f, err := w.factory()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SourceInfo describes one workload-source prefix — how tooling (CLI help,
// the daemon's GET /v1/workloads) advertises where workload names can come
// from.
type SourceInfo struct {
	// Prefix is the literal name prefix ("file:", "champsim:"); empty for
	// the catalog/graph namespace.
	Prefix string `json:"prefix"`
	// Description is a one-line summary of the source.
	Description string `json:"description"`
}

// Sources lists every workload-source prefix this build resolves: the
// catalog/graph namespace and each registered ingest format, native trace
// replay ("file:") among them.
func Sources() []SourceInfo {
	out := []SourceInfo{
		{Prefix: "", Description: "catalog workload or graph grammar, resolved by name"},
	}
	for _, f := range ingest.Formats() {
		out = append(out, SourceInfo{Prefix: f.Name + ":", Description: f.Description})
	}
	return out
}

// Options configure the simulated system and the Prophet pipeline. The
// functional options of New cover the same knobs; Options remains the
// bulk-configuration form (WithOptions). A zero field selects its default.
type Options struct {
	// ELAcc is the Equation 1 insertion threshold (default 0.15).
	ELAcc float64
	// PriorityBits is Equation 2's n (default 2, at most MaxPriorityBits).
	PriorityBits int
	// MVBCandidates is the victim-buffer alternate budget (default 1).
	MVBCandidates int
	// LearningL is Equation 4's L (default 4).
	LearningL int
	// DRAMChannels widens memory bandwidth (default 1, Table 1).
	DRAMChannels int
	// L1Prefetcher selects the L1 prefetcher (default L1Stride; L1IPCP is
	// Figure 17's).
	L1Prefetcher L1Prefetcher
}

// DefaultOptions returns the paper's evaluated configuration.
func DefaultOptions() Options {
	return Options{ELAcc: 0.15, PriorityBits: 2, MVBCandidates: 1, LearningL: 4, DRAMChannels: 1, L1Prefetcher: L1Stride}
}

// MaxPriorityBits is the largest Equation 2 n: its 2^n priority levels
// fill the metadata table's one-byte priority. A larger PriorityBits runs
// as this one.
const MaxPriorityBits = analysis.MaxPriorityBits

// resolved fills every unset field from DefaultOptions: non-positive
// numbers, and an L1 prefetcher outside the three kinds, which simulates
// the stride default. PriorityBits is capped at MaxPriorityBits. The result
// names exactly what pipelineConfig builds.
func (o Options) resolved() Options {
	d := DefaultOptions()
	if o.ELAcc <= 0 {
		o.ELAcc = d.ELAcc
	}
	if o.PriorityBits <= 0 {
		o.PriorityBits = d.PriorityBits
	}
	o.PriorityBits = min(o.PriorityBits, MaxPriorityBits)
	if o.MVBCandidates <= 0 {
		o.MVBCandidates = d.MVBCandidates
	}
	if o.LearningL <= 0 {
		o.LearningL = d.LearningL
	}
	if o.DRAMChannels <= 0 {
		o.DRAMChannels = d.DRAMChannels
	}
	if o.L1Prefetcher != L1IPCP && o.L1Prefetcher != L1None {
		o.L1Prefetcher = d.L1Prefetcher
	}
	return o
}

// pipelineConfig builds the configuration of resolved options.
func (o Options) pipelineConfig() pipeline.Config {
	cfg := pipeline.Default()
	cfg.Analysis.ELAcc = o.ELAcc
	cfg.Analysis.PriorityBits = o.PriorityBits
	cfg.Prophet.MVBCandidates = o.MVBCandidates
	cfg.L = o.LearningL
	cfg.Sim.DRAM.Channels = o.DRAMChannels
	switch o.L1Prefetcher {
	case L1IPCP:
		cfg.Sim.L1PF = sim.L1IPCP
	case L1None:
		cfg.Sim.L1PF = sim.L1None
	}
	return cfg
}

// RunStats summarizes one simulation run. It is comparable: two identical
// runs produce equal RunStats values.
type RunStats struct {
	// IPC is instructions per cycle.
	IPC float64
	// Speedup is IPC relative to the no-temporal-prefetching baseline on
	// the same trace (1.0 for the baseline itself).
	Speedup float64
	// DRAMTraffic is total DRAM line transfers.
	DRAMTraffic uint64
	// NormalizedTraffic is DRAMTraffic relative to the baseline.
	NormalizedTraffic float64
	// Coverage is the demand-miss reduction vs the baseline.
	Coverage float64
	// Accuracy is useful/issued prefetches.
	Accuracy float64
	// MetaWays is the LLC ways held by the metadata table at end of run.
	MetaWays int
	// Raw exposes headline raw counters for tooling.
	Raw RawStats
}

// RawStats carries the un-normalized counters behind RunStats.
type RawStats struct {
	Instructions    uint64
	Cycles          uint64
	L1Hits          uint64
	L1Misses        uint64
	L2DemandMisses  uint64
	DRAMReads       uint64
	DRAMWrites      uint64
	TPIssued        uint64
	TPUseful        uint64
	TPUseless       uint64
	TableInsertions uint64
	TableLookups    uint64
	TableHits       uint64
}

func summarize(s sim.Stats, base sim.Stats) RunStats {
	return RunStats{
		IPC:               s.IPC(),
		Speedup:           stats.Speedup(s.IPC(), base.IPC()),
		DRAMTraffic:       s.DRAMTraffic(),
		NormalizedTraffic: stats.NormalizedTraffic(s.DRAMTraffic(), base.DRAMTraffic()),
		Coverage:          stats.Coverage(base.L2DemandMisses, s.L2DemandMisses),
		Accuracy:          s.TPAccuracy(),
		MetaWays:          s.MetaWays,
		Raw: RawStats{
			Instructions:    s.Core.Instructions,
			Cycles:          s.Core.Cycles,
			L1Hits:          s.L1.Hits,
			L1Misses:        s.L1.Misses,
			L2DemandMisses:  s.L2DemandMisses,
			DRAMReads:       s.DRAM.Reads,
			DRAMWrites:      s.DRAM.Writes,
			TPIssued:        s.TPIssued,
			TPUseful:        s.TPUseful,
			TPUseless:       s.TPUseless,
			TableInsertions: s.TableStats.Insertions,
			TableLookups:    s.TableStats.Lookups,
			TableHits:       s.TableStats.Hits,
		},
	}
}

// Scheme names a prefetching configuration resolved through the scheme
// registry.
type Scheme string

// The built-in schemes (each self-registered by its package).
const (
	Baseline Scheme = "baseline"
	Triage   Scheme = "triage"
	Triangel Scheme = "triangel"
	RPG2     Scheme = "rpg2"
	Prophet  Scheme = "prophet"
	Gaze     Scheme = "gaze"
)
