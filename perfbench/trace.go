package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prophet"
	"prophet/internal/mem"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/temporal"
)

// tracer records spans around calls into the modules' public functions. The
// spans stay in memory until finish writes them out, so recording costs one
// clock read and one append under a mutex. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent (0 for a root) and returns its
// ID for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// finish writes the spans to .bench_build/trace-<workload>-<seed>.json and
// adds each span name's summed self time to the per-layer results as
// "<name>_s".
func (t *tracer) finish(workload string, seed uint64, res *childResult) error {
	for _, s := range t.spans {
		if s.End < 0 {
			return fmt.Errorf("span %q (%d) was never closed", s.Name, s.ID)
		}
	}
	for name, ns := range selfTimes(t.spans) {
		res.Layers[name+"_s"] += float64(ns) / 1e9
	}
	res.Layers["trace.spans"] = float64(len(t.spans))
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", workload, seed)), b, 0o644)
}

// timedEngine wraps a temporal engine passed to sim.RunOpts, timing every
// OnAccess call and optionally capturing the L2 access stream for the
// component replays. The simulator only sees the temporal.Engine interface,
// so the wrapped run is identical to an unwrapped one.
type timedEngine struct {
	temporal.Engine
	calls, ns int64
	capture   []temporal.AccessEvent
	captureN  int
}

func (e *timedEngine) OnAccess(ev temporal.AccessEvent) []mem.Line {
	if len(e.capture) < e.captureN {
		e.capture = append(e.capture, ev)
	}
	t := time.Now()
	out := e.Engine.OnAccess(ev)
	e.ns += time.Since(t).Nanoseconds()
	e.calls++
	return out
}

// row is one result in the canonical form every determinism and equality
// check hashes: the public RunStats plus scheme metadata.
type row struct {
	Workload string           `json:"workload"`
	Scheme   string           `json:"scheme"`
	Stats    prophet.RunStats `json:"stats"`
	Meta     map[string]int   `json:"meta,omitempty"`
}

// digest hashes rows in (workload, scheme) order, so the request order a
// seed picks does not change it.
func digest(rows []row) string {
	rs := append([]row(nil), rows...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Workload != rs[j].Workload {
			return rs[i].Workload < rs[j].Workload
		}
		return rs[i].Scheme < rs[j].Scheme
	})
	for i := range rs {
		if len(rs[i].Meta) == 0 {
			rs[i].Meta = nil
		}
	}
	b, err := json.Marshal(rs)
	if err != nil {
		panic(err) // RunStats and int maps always marshal
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// summarize normalizes one stage-by-stage run to its baseline exactly as the
// root package does for Evaluator results, so traced rows hash equal to
// untraced ones.
func summarize(s, base sim.Stats) prophet.RunStats {
	return prophet.RunStats{
		IPC:               s.IPC(),
		Speedup:           stats.Speedup(s.IPC(), base.IPC()),
		DRAMTraffic:       s.DRAMTraffic(),
		NormalizedTraffic: stats.NormalizedTraffic(s.DRAMTraffic(), base.DRAMTraffic()),
		Coverage:          stats.Coverage(base.L2DemandMisses, s.L2DemandMisses),
		Accuracy:          s.TPAccuracy(),
		MetaWays:          s.MetaWays,
		Raw: prophet.RawStats{
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

// checkRow applies the output checks every simulated result must pass: the
// sim.Stats invariants, and for a temporal scheme the active-regime guard.
func checkRow(r row, res *childResult) {
	st := r.Stats
	res.Attempted++
	switch {
	case st.Raw.TPUseful > st.Raw.TPIssued:
		res.fail("%s/%s: TPUseful %d > TPIssued %d", r.Workload, r.Scheme, st.Raw.TPUseful, st.Raw.TPIssued)
	case st.Raw.L2DemandMisses > st.Raw.L1Misses:
		res.fail("%s/%s: L2DemandMisses %d > L1 misses %d", r.Workload, r.Scheme, st.Raw.L2DemandMisses, st.Raw.L1Misses)
	case st.Coverage < 0 || st.Coverage > 1 || st.Accuracy < 0 || st.Accuracy > 1:
		res.fail("%s/%s: coverage %.4f or accuracy %.4f outside [0,1]", r.Workload, r.Scheme, st.Coverage, st.Accuracy)
	case r.Scheme != string(prophet.Baseline) && (st.Raw.TPUseful == 0 || st.Coverage <= coverageFloor):
		res.fail("%s/%s: inert cell (TPUseful %d, coverage %.4f, floor %.2f)", r.Workload, r.Scheme, st.Raw.TPUseful, st.Coverage, coverageFloor)
	}
}

// layerAgg accumulates the traced run's per-scheme simulator figures.
type layerAgg struct {
	mu      sync.Mutex
	schemes map[string]*schemeAgg
	hints   int
}

type schemeAgg struct {
	simNs, records       int64
	ipc, coverage, ways  []float64
	l1h, l1m, l2h, l2m   uint64
	l3h, l3m, drr, drw   uint64
	issued, useful       uint64
	accessNs, accessCall int64
}

func newLayerAgg() *layerAgg { return &layerAgg{schemes: map[string]*schemeAgg{}} }

// add records one simulation of scheme that took d; te is the timed engine
// (nil for the baseline).
func (a *layerAgg) add(scheme string, d time.Duration, st sim.Stats, rs prophet.RunStats, te *timedEngine) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.schemes[scheme]
	if g == nil {
		g = &schemeAgg{}
		a.schemes[scheme] = g
	}
	g.simNs += d.Nanoseconds()
	g.records += int64(st.Core.MemRecords)
	g.ipc = append(g.ipc, st.IPC())
	g.coverage = append(g.coverage, rs.Coverage)
	g.ways = append(g.ways, float64(st.MetaWays))
	g.l1h += st.L1.Hits
	g.l1m += st.L1.Misses
	g.l2h += st.L2.Hits
	g.l2m += st.L2.Misses
	g.l3h += st.L3.Hits
	g.l3m += st.L3.Misses
	g.drr += st.DRAM.Reads
	g.drw += st.DRAM.Writes
	g.issued += st.TPIssued
	g.useful += st.TPUseful
	if te != nil {
		g.accessNs += te.ns
		g.accessCall += te.calls
	}
}

func (a *layerAgg) addHints(n int) {
	a.mu.Lock()
	a.hints += n
	a.mu.Unlock()
}

// report adds the aggregated per-scheme layer metrics to res.
func (a *layerAgg) report(res *childResult) {
	for s, g := range a.schemes {
		if g.records > 0 {
			res.Layers["sim.ns_per_record."+s] = float64(g.simNs) / float64(g.records)
		}
		res.Layers["cpu.ipc."+s] = geomean(g.ipc)
		res.Layers["cache.l1_hits."+s] = float64(g.l1h)
		res.Layers["cache.l1_misses."+s] = float64(g.l1m)
		res.Layers["cache.l2_hits."+s] = float64(g.l2h)
		res.Layers["cache.l2_misses."+s] = float64(g.l2m)
		res.Layers["cache.l3_hits."+s] = float64(g.l3h)
		res.Layers["cache.l3_misses."+s] = float64(g.l3m)
		res.Layers["dram.reads."+s] = float64(g.drr)
		res.Layers["dram.writes."+s] = float64(g.drw)
		if s == string(prophet.Baseline) {
			continue
		}
		if g.accessCall > 0 {
			res.Layers["temporal.onaccess_ns."+s] = float64(g.accessNs) / float64(g.accessCall)
		}
		res.Layers["temporal.issued."+s] = float64(g.issued)
		res.Layers["temporal.useful."+s] = float64(g.useful)
		if g.issued > 0 {
			res.Layers["temporal.accuracy."+s] = float64(g.useful) / float64(g.issued)
		}
		res.Layers["temporal.coverage."+s] = mean(g.coverage)
		res.Layers["temporal.meta_ways."+s] = mean(g.ways)
	}
	res.Layers["core.hints"] = float64(a.hints)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
