// Command prophetbench is the performance harness behind the repository's
// perf-regression gate. It runs a workloads x schemes matrix through the
// public Evaluator, timing each cell with the testing package's benchmark
// machinery, and emits
//
//   - a human-readable table on stdout, and
//   - a schema-versioned, machine-readable JSON file (BENCH_<date>.json by
//     default) holding ns/op, allocs/op, bytes/op, accesses/sec and the
//     simulation-quality metrics (speedup, coverage, accuracy) per cell.
//
// A previous JSON file can be supplied with -compare; prophetbench then
// prints the per-cell deltas and exits non-zero if any cell's ns/op regressed
// by more than -threshold percent. CI runs exactly that against the committed
// baseline, so hot-path regressions fail the build.
//
// -cpuprofile captures the whole matrix run as one CPU profile — the raw
// material for the repository's PGO loop: runs are merged with
// `go tool pprof -proto` into the checked-in default.pgo (see
// docs/PROFILING.md).
//
// Timing semantics per cell:
//
//   - For prefetching schemes, one op is one Evaluator.Run — a full
//     simulation of the trace under that scheme (for "prophet" this includes
//     the profile + learn + analyze passes, i.e. the whole Figure 5 loop).
//     The workload's no-prefetching baseline is primed before timing starts,
//     so its cost is excluded (it is what the "baseline" cells measure).
//   - For the "baseline" scheme, one op is a fresh Evaluator's baseline
//     simulation (the cache would otherwise make repeat runs free).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"prophet"

	"prophet/internal/cliutil"
)

// schemaVersion identifies the JSON layout; bump on incompatible change.
const schemaVersion = 1

// Report is the top-level JSON document.
type Report struct {
	Schema    int    `json:"schema"`
	Tool      string `json:"tool"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Date      string `json:"date"`
	Records   uint64 `json:"records"`
	Cells     []Cell `json:"cells"`
}

// Cell is one workload x scheme measurement.
type Cell struct {
	Workload       string  `json:"workload"`
	Scheme         string  `json:"scheme"`
	Records        uint64  `json:"records"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"nsPerOp"`
	AllocsPerOp    int64   `json:"allocsPerOp"`
	BytesPerOp     int64   `json:"bytesPerOp"`
	AccessesPerSec float64 `json:"accessesPerSec"`
	Speedup        float64 `json:"speedup"`
	Coverage       float64 `json:"coverage"`
	Accuracy       float64 `json:"accuracy"`
}

func (c Cell) key() string { return c.Workload + "/" + c.Scheme }

func main() {
	var (
		workloadsFlag = flag.String("workloads", "mcf,omnetpp,sphinx3,xalancbmk", "comma-separated workload names")
		schemesFlag   = flag.String("schemes", "baseline,triage,triangel,prophet", "comma-separated scheme names")
		records       = flag.Uint64("records", 30_000, "trace length per workload in memory records")
		benchtime     = flag.String("benchtime", "1x", "per-cell benchmark time (testing -benchtime syntax, e.g. 2x or 1s)")
		out           = flag.String("o", "", "output JSON path (default BENCH_<date>.json; \"-\" for none)")
		compare       = flag.String("compare", "", "previous report JSON to compare against")
		threshold     = flag.Float64("threshold", 10, "max allowed ns/op regression percent vs -compare")
		nsGate        = flag.Bool("ns-gate", true, "gate on ns/op (disable when the baseline comes from different hardware; allocs/op stays gated)")
		extended      = flag.Bool("extended", false, "append the extra scheme families (gaze, adaptive) to the matrix; their cells are absent from older baselines and therefore not gated")
		cpuprofile    = flag.String("cpuprofile", "", "capture a CPU profile of the whole matrix run to this .pprof file (feeds the PGO loop, docs/PROFILING.md)")
		showVersion   = flag.Bool("version", false, "print version and exit")
	)
	testing.Init()
	flag.Parse()
	if *showVersion {
		fmt.Println(prophet.Version())
		return
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatalf("bad -benchtime %q: %v", *benchtime, err)
	}

	rep := Report{
		Schema:    schemaVersion,
		Tool:      "prophetbench",
		Version:   prophet.Version(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Records:   *records,
	}

	ws := cliutil.SplitList(*workloadsFlag)
	schemes := cliutil.SplitList(*schemesFlag)
	if len(ws) == 0 || len(schemes) == 0 {
		fatalf("empty workload or scheme list")
	}
	if *extended {
		have := map[string]bool{}
		for _, s := range schemes {
			have[s] = true
		}
		for _, s := range []string{"gaze", "adaptive"} {
			if !have[s] {
				schemes = append(schemes, s)
			}
		}
	}

	ctx := context.Background()
	newEval := func() *prophet.Evaluator {
		return prophet.New(prophet.WithWorkers(1))
	}
	ev := newEval()

	// With -cpuprofile the whole matrix runs inside one capture window, so
	// the profile weights each cell by its real measurement cost — exactly
	// the mix a PGO build of this binary will execute.
	var prof *os.File
	if *cpuprofile != "" {
		var err error
		if prof, err = os.Create(*cpuprofile); err != nil {
			fatalf("creating %s: %v", *cpuprofile, err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			fatalf("start CPU profile: %v", err)
		}
	}

	for _, wn := range ws {
		w, err := prophet.Find(wn)
		if err != nil {
			fatalf("%v", err)
		}
		w = w.WithRecords(*records)
		for _, sn := range schemes {
			cell, err := measure(ctx, ev, newEval, w, prophet.Scheme(sn), *records)
			if err != nil {
				fatalf("%s under %s: %v", wn, sn, err)
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(os.Stderr, "measured %-12s %-9s %12.0f ns/op %9d allocs/op\n",
				wn, sn, cell.NsPerOp, cell.AllocsPerOp)
		}
	}

	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fatalf("writing %s: %v", *cpuprofile, err)
		}
		fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuprofile)
	}

	printTable(rep)

	if *out != "-" {
		path := *out
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		if err := writeReport(path, rep); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("\nwrote %s\n", path)
	}

	if *compare != "" {
		old, err := readReport(*compare)
		if err != nil {
			fatalf("reading %s: %v", *compare, err)
		}
		if old.Records != rep.Records {
			fatalf("baseline %s measured %d records per cell, this run %d — per-op times are not comparable; rerun with -records %d or regenerate the baseline",
				*compare, old.Records, rep.Records, old.Records)
		}
		if !printComparison(old, rep, *threshold, *nsGate) {
			os.Exit(1)
		}
	}
}

// measure times one matrix cell and collects its quality metrics. newEval
// builds fresh evaluators with the run's configuration (baseline cells
// cannot reuse ev — its cache would make repeats free).
func measure(ctx context.Context, ev *prophet.Evaluator, newEval func() *prophet.Evaluator, w prophet.Workload, scheme prophet.Scheme, records uint64) (Cell, error) {
	// One untimed run primes the workload baseline in the shared evaluator
	// and yields the cell's simulation-quality metrics.
	stats, err := ev.Run(ctx, w, scheme)
	if err != nil {
		return Cell{}, err
	}
	var res testing.BenchmarkResult
	if scheme == prophet.Baseline {
		// The shared evaluator would serve baseline repeats from cache;
		// measure the raw no-prefetching simulation on fresh evaluators.
		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newEval().Run(ctx, w, scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	} else {
		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Run(ctx, w, scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if res.N == 0 {
		return Cell{}, fmt.Errorf("benchmark produced no iterations")
	}
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	cell := Cell{
		Workload:    w.Name,
		Scheme:      string(scheme),
		Records:     records,
		Iterations:  res.N,
		NsPerOp:     ns,
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Speedup:     stats.Speedup,
		Coverage:    stats.Coverage,
		Accuracy:    stats.Accuracy,
	}
	if ns > 0 {
		cell.AccessesPerSec = float64(records) / (ns / 1e9)
	}
	return cell, nil
}

func printTable(rep Report) {
	fmt.Printf("prophetbench %s (%s %s/%s) records=%d\n\n",
		rep.Version, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.Records)
	fmt.Printf("%-12s %-9s %14s %12s %12s %14s %8s %8s %8s\n",
		"workload", "scheme", "ns/op", "allocs/op", "bytes/op", "accesses/s", "speedup", "cover", "accur")
	for _, c := range rep.Cells {
		fmt.Printf("%-12s %-9s %14.0f %12d %12d %14.0f %8.3f %8.3f %8.3f\n",
			c.Workload, c.Scheme, c.NsPerOp, c.AllocsPerOp, c.BytesPerOp,
			c.AccessesPerSec, c.Speedup, c.Coverage, c.Accuracy)
	}
	if ns, al := geomeans(rep.Cells); ns > 0 {
		fmt.Printf("%-12s %-9s %14.0f %12.0f\n", "geomean", "", ns, al)
	}
}

// geomeans returns the geometric means of ns/op and allocs/op across cells.
func geomeans(cells []Cell) (ns, allocs float64) {
	var lns, lal float64
	n := 0
	for _, c := range cells {
		if c.NsPerOp <= 0 || c.AllocsPerOp <= 0 {
			continue
		}
		lns += math.Log(c.NsPerOp)
		lal += math.Log(float64(c.AllocsPerOp))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(lns / float64(n)), math.Exp(lal / float64(n))
}

// cellThresholdFactor scales the per-cell backstop: single cells on shared
// CI runners are noisy, so the build gates on the geomean at the threshold
// and on individual cells only at threshold x this factor.
const cellThresholdFactor = 3

// allocThresholdFactor scales the allocs/op gate. Allocation counts are
// machine-independent (unlike ns/op, which shifts with runner hardware),
// so they catch real regressions even against a baseline from a different
// machine; the factor absorbs the cold-start allocations amortized
// differently under different iteration counts.
const allocThresholdFactor = 2

// printComparison reports per-cell deltas vs the old report and returns
// false when the geomean ns/op regressed beyond threshold percent, the
// geomean allocs/op beyond allocThresholdFactor x threshold, or any single
// cell's ns/op beyond cellThresholdFactor x threshold. With nsGate false the
// wall-clock checks are reported but not gated — the right mode when the
// baseline was measured on different hardware, where only the
// machine-independent allocs/op comparison is meaningful.
func printComparison(old, cur Report, threshold float64, nsGate bool) bool {
	oldCells := map[string]Cell{}
	for _, c := range old.Cells {
		oldCells[c.key()] = c
	}
	cellThreshold := threshold * cellThresholdFactor
	fmt.Printf("\ncomparison vs baseline (%s, records=%d, gate: geomean +%.1f%% / cell +%.1f%% ns/op):\n\n",
		old.Date, old.Records, threshold, cellThreshold)
	fmt.Printf("%-12s %-9s %14s %14s %9s %12s %12s %9s\n",
		"workload", "scheme", "old ns/op", "new ns/op", "Δns", "old allocs", "new allocs", "Δallocs")
	ok := true
	matched, allocMatched := 0, 0
	var worst float64
	var worstKey string
	var lns, lal float64
	for _, c := range cur.Cells {
		o, found := oldCells[c.key()]
		if !found || o.NsPerOp <= 0 {
			fmt.Printf("%-12s %-9s %14s (no baseline cell)\n", c.Workload, c.Scheme, "-")
			continue
		}
		matched++
		dns := (c.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		dal := 0.0
		if o.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			dal = (float64(c.AllocsPerOp) - float64(o.AllocsPerOp)) / float64(o.AllocsPerOp) * 100
			lal += math.Log(float64(c.AllocsPerOp) / float64(o.AllocsPerOp))
			allocMatched++
		}
		mark := ""
		if dns > cellThreshold {
			ok = false
			mark = "  REGRESSION"
		}
		if dns > worst {
			worst, worstKey = dns, c.key()
		}
		lns += math.Log(c.NsPerOp / o.NsPerOp)
		fmt.Printf("%-12s %-9s %14.0f %14.0f %8.1f%% %12d %12d %8.1f%%%s\n",
			c.Workload, c.Scheme, o.NsPerOp, c.NsPerOp, dns, o.AllocsPerOp, c.AllocsPerOp, dal, mark)
	}
	if matched < len(oldCells) {
		// Baseline cells the current run never visited mean the matrix
		// drifted (trimmed workload list, renamed scheme). Passing
		// silently would narrow or disable the gate while CI stays green;
		// force the baseline to be regenerated instead.
		covered := map[string]bool{}
		for _, c := range cur.Cells {
			covered[c.key()] = true
		}
		for _, o := range old.Cells {
			if !covered[o.key()] {
				fmt.Printf("%-12s %-9s %14.0f (baseline cell not measured by this run)\n", o.Workload, o.Scheme, o.NsPerOp)
			}
		}
		fmt.Printf("FAIL: %d of %d baseline cells unmatched — the matrix changed; regenerate the baseline\n",
			len(oldCells)-matched, len(oldCells))
		return false
	}
	if !nsGate {
		ok = true // wall-clock checks reported above, not gated
	}
	geo := (math.Exp(lns/float64(matched)) - 1) * 100
	allocGeo := 0.0
	if allocMatched > 0 {
		allocGeo = (math.Exp(lal/float64(allocMatched)) - 1) * 100
	}
	allocThreshold := threshold * allocThresholdFactor
	fmt.Printf("\ngeomean ns/op change: %+.1f%%   geomean allocs/op change: %+.1f%%\n", geo, allocGeo)
	if !nsGate {
		fmt.Println("(ns/op gate disabled: baseline from different hardware; gating allocs/op only)")
	}
	switch {
	case nsGate && geo > threshold:
		fmt.Printf("FAIL: geomean ns/op regressed %.1f%% > %.1f%% threshold\n", geo, threshold)
		ok = false
	case allocGeo > allocThreshold:
		fmt.Printf("FAIL: geomean allocs/op regressed %.1f%% > %.1f%% threshold (machine-independent gate)\n", allocGeo, allocThreshold)
		ok = false
	case !ok:
		fmt.Printf("FAIL: %s regressed %.1f%% > %.1f%% cell threshold\n", worstKey, worst, cellThreshold)
	default:
		fmt.Printf("PASS: allocs within %.1f%%", allocThreshold)
		if nsGate {
			fmt.Printf(", geomean ns/op within %.1f%%, every cell within %.1f%%", threshold, cellThreshold)
		}
		fmt.Println()
	}
	return ok
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, err
	}
	if rep.Schema != schemaVersion {
		return Report{}, fmt.Errorf("unsupported schema %d (want %d)", rep.Schema, schemaVersion)
	}
	sort.Slice(rep.Cells, func(i, j int) bool { return rep.Cells[i].key() < rep.Cells[j].key() })
	return rep, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prophetbench: "+format+"\n", args...)
	os.Exit(1)
}
