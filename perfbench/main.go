// Command perfbench is the repository's benchmark. It runs one named workload
// through the public entry points — prophet.Evaluator.Sweep, prophet.Session
// and an in-process prophetd — checks every output, and prints the
// end-to-end metrics as one JSON object on the last line of standard output.
// With --trace 1 it instead makes a separate traced run and prints the
// per-layer metrics.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload sweep-temporal --seed 1 --seconds 30 --trace 0
//
// Every timed repeat runs in a fresh child process, so process-global caches
// (the materialized-trace store, the simulator's scratch pools) start cold,
// as they do for a researcher's run. README.md lists the workloads, metrics
// and the layer each metric belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// workers is the load the benchmark applies: sweep workers and serving
	// clients of one process, at most the 2 cores of the reference machine.
	workers = 2
	// minRepeats is the fewest timed repeats a run makes, however short
	// --seconds is; every reported time is a median over the repeats. A
	// run's first repeat warms the host up: it is checked but not timed.
	minRepeats = 3
	// setupSamples is how many set-up-only children a timed run starts.
	setupSamples = 20
	// coverageFloor is the active-regime guard: every non-baseline sweep
	// cell and every held-out session run must prefetch usefully and cover
	// more than this share of the baseline's demand misses, or the run is
	// reported as failed instead of timed.
	coverageFloor = 0.10
	// paperProphetVsTriangel is the paper's reported Prophet speedup over
	// Triangel (14.23%), printed beside the measured ratio.
	paperProphetVsTriangel = 1.1423
	// buildDir holds everything the benchmark writes inside the checkout.
	buildDir = ".bench_build"
)

// bench is one workload. Its constructor is the set-up a repeat pays before
// its first operation; run is one timed repeat (tr is nil when untraced).
type bench interface {
	run(tr *tracer, res *childResult)
	// layers adds the traced run's per-layer measurements after a traced
	// repeat.
	layers(tr *tracer, res *childResult)
	close()
}

// verifier is implemented by workloads whose outputs are checked against an
// independent in-process computation, made once per run in its own child.
type verifier interface {
	verify(res *childResult)
}

// Each workload is built from the run's seed and the repeat's index: the
// request and key orders vary between the repeats of a run (their results
// may not), so a run's medians average over orders.
var benches = map[string]func(seed, repeat uint64) (bench, error){
	"sweep-temporal": newSweepBench,
	"session-gcc":    newSessionBench,
	"serve-tiers":    newServeBench,
}

// childResult is what one child process reports on its last output line.
type childResult struct {
	WallS     float64              `json:"wall_s"`
	CPUS      float64              `json:"cpu_s"`
	AllocMB   float64              `json:"alloc_mb"`
	Verifies  bool                 `json:"verifies,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Digest    string               `json:"digest"`
	Values    map[string]float64   `json:"values"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Layers    map[string]float64   `json:"layers,omitempty"`
}

func newChildResult() *childResult {
	return &childResult{Values: map[string]float64{}, Samples: map[string][]float64{}, Layers: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few descriptions.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: sweep-temporal, session-gcc or serve-tiers")
	seed := flag.Uint64("seed", 1, "seed for request order, the session split and the serving key order")
	seconds := flag.Int("seconds", 30, "how long the timed repeats run")
	trace := flag.Int("trace", 0, "1 makes a traced run and prints per-layer metrics")
	child := flag.Bool("child", false, "internal: run one repeat in this process")
	repeat := flag.Uint64("repeat", 0, "internal: with -child, the index of the repeat")
	verify := flag.Bool("verify", false, "internal: with -child, run the workload's independent check")
	setupOnly := flag.Bool("setup", false, "internal: with -child, only set the workload up")
	flag.Parse()
	mk, ok := benches[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sweep-temporal, session-gcc, serve-tiers), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(mk, *workload, *seed, *repeat, *trace == 1, *verify, *setupOnly))
	}
	os.Exit(runParent(*workload, *seed, *seconds, *trace == 1))
}

// runChild sets the workload up, signals readiness with the CPU time the
// process has used so far, runs one repeat (or the verification, or nothing
// with setupOnly) and reports a childResult as its last line.
func runChild(mk func(seed, repeat uint64) (bench, error), name string, seed, repeat uint64, traced, verify, setupOnly bool) int {
	b, err := mk(seed, repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set up %s: %v\n", name, err)
		return 1
	}
	defer b.close()
	fmt.Printf("ready %.9f\n", cpuTime())
	res := newChildResult()
	_, res.Verifies = b.(verifier)
	switch {
	case setupOnly:
	case verify:
		v, ok := b.(verifier)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no verification\n", name)
			return 1
		}
		v.verify(res)
	case traced:
		tr := newTracer()
		t0, c0 := time.Now(), cpuTime()
		b.run(tr, res)
		res.WallS = time.Since(t0).Seconds()
		res.CPUS = cpuTime() - c0
		b.layers(tr, res)
		if err := tr.finish(name, seed, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
	default:
		t0, c0 := time.Now(), cpuTime()
		b.run(nil, res)
		res.WallS = time.Since(t0).Seconds()
		res.CPUS = cpuTime() - c0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		return 1
	}
	return 0
}

// repeat is one child process as the parent observed it.
type repeat struct {
	// setupS is the wall time from starting the child to its "ready" line;
	// setupCPUS is the CPU time the child reported on that line. Both cover
	// process start, package initialization and workload construction.
	setupS, setupCPUS, rssMB float64
	res                      *childResult
}

// spawn runs one child of this binary to completion.
func spawn(name string, seed uint64, repeatIdx int, extra ...string) (repeat, error) {
	exe, err := os.Executable()
	if err != nil {
		return repeat{}, err
	}
	args := append([]string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-repeat", strconv.Itoa(repeatIdx)}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return repeat{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return repeat{}, err
	}
	var (
		rep     repeat
		readyOK = true
	)
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "ready "); ok && rep.setupS == 0 {
			rep.setupS = time.Since(t0).Seconds()
			rep.setupCPUS, err = strconv.ParseFloat(cpu, 64)
			readyOK = err == nil
			continue
		}
		var r childResult
		if json.Unmarshal(sc.Bytes(), &r) == nil {
			rep.res = &r
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return repeat{}, fmt.Errorf("child %s: %w", name, err)
	}
	if scanErr != nil {
		return repeat{}, fmt.Errorf("child %s output: %w", name, scanErr)
	}
	if rep.res == nil || rep.setupS == 0 || !readyOK {
		return repeat{}, fmt.Errorf("child %s reported no result", name)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(name string, seed uint64, seconds int, traced bool) int {
	printBuild(name, seed)
	var (
		out result
		err error
	)
	if traced {
		out, err = runTraced(name, seed, time.Duration(seconds)*time.Second)
	} else {
		out, err = runTimed(name, seed, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out.Correct = out.Failed == 0
	fmt.Printf("  %-22s %12.6f %-6s (lower is better) attempted %d, failed %d\n", "failed_ratio", float64(out.Failed)/float64(out.Attempted), "ratio", out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printBuild records what was measured: the toolchain, the parallelism and
// whether the binary was built with a PGO profile.
func printBuild(name string, seed uint64) {
	pgo := "off"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				pgo = s.Value
			}
		}
	}
	fmt.Printf("perfbench workload=%s seed=%d go=%s GOMAXPROCS=%d NumCPU=%d pgo=%s\n",
		name, seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), pgo)
}

// runTimed makes repeats (a warm-up and at least minRepeats timed ones)
// while the next one, as long as the last, still fits in the budget, and
// reports medians. After the warm-up it also starts setupSamples children
// that only set the workload up, so the set-up median rests on more samples
// than the few long repeats give.
func runTimed(name string, seed uint64, budget time.Duration) (result, error) {
	start := time.Now()
	var reps []repeat
	var setup, setupWall []float64
	for last := time.Duration(0); len(reps) <= minRepeats || time.Since(start)+last <= budget; {
		t0 := time.Now()
		r, err := spawn(name, seed, len(reps))
		if err != nil {
			return result{}, err
		}
		last = time.Since(t0)
		reps = append(reps, r)
		if len(reps) == 1 {
			for range setupSamples {
				s, err := spawn(name, seed, 0, "-setup")
				if err != nil {
					return result{}, err
				}
				setup = append(setup, s.setupCPUS)
				setupWall = append(setupWall, s.setupS)
			}
		}
	}
	out := result{Metrics: map[string]metricValue{}}
	var wall, cpu, rss, alloc []float64
	values := map[string][]float64{}
	samples := map[string][]float64{}
	for i, r := range reps {
		if i > 0 {
			setup = append(setup, r.setupCPUS)
			setupWall = append(setupWall, r.setupS)
			wall = append(wall, r.res.WallS)
			cpu = append(cpu, r.res.CPUS)
			rss = append(rss, r.rssMB)
			alloc = append(alloc, r.res.AllocMB)
		}
		out.Attempted += r.res.Attempted
		out.Failed += r.res.Failed
		reportProblems(r.res.Problems)
		for k, v := range r.res.Values {
			values[k] = append(values[k], v)
		}
		for k, v := range r.res.Samples {
			samples[k] = append(samples[k], v...)
		}
		// Determinism: every repeat of the same seed returns byte-identical
		// results.
		out.Attempted++
		if r.res.Digest != reps[0].res.Digest {
			out.Failed++
			reportProblems([]string{fmt.Sprintf("repeat %d results differ from repeat 0 (digest %s vs %s)", i, r.res.Digest, reps[0].res.Digest)})
		}
	}
	if reps[0].res.Verifies {
		v, err := spawn(name, seed, 0, "-verify")
		if err != nil {
			return result{}, err
		}
		out.Attempted += v.res.Attempted + 1
		out.Failed += v.res.Failed
		reportProblems(v.res.Problems)
		if v.res.Digest != reps[0].res.Digest {
			out.Failed++
			reportProblems([]string{fmt.Sprintf("served results differ from an in-process sweep (digest %s vs %s)", reps[0].res.Digest, v.res.Digest)})
		}
	}
	e2e := map[string]float64{
		"setup_s":     median(setup),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"alloc_mb":    median(alloc),
	}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = metricValue{Value: e2e[m.Name], Unit: m.Unit}
	}
	values["wall_s"], values["setup_wall_s"] = wall, setupWall
	fmt.Printf("%d repeats and %d set-ups in %.1fs (each a fresh process; the first repeat untimed)\n  cpu_s of each:  %.3f\n  wall_s of each: %.3f\n",
		len(reps), len(setup), time.Since(start).Seconds(), cpu, wall)
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %12.6f %-6s (%s is better)\n", m.Name, e2e[m.Name], m.Unit, m.Better)
	}
	printWorkloadMetrics(values, samples, &out)
	return out, nil
}

func reportProblems(ps []string) {
	for _, p := range ps {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
}

// printWorkloadMetrics prints the workload's own metrics by name with unit
// and direction, and checks that every tail latency has at least ten
// samples beyond it.
func printWorkloadMetrics(values, samples map[string][]float64, out *result) {
	for _, m := range workloadMetrics {
		v, ok := values[m.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Name == "prophet_vs_triangel" {
			note = fmt.Sprintf("  paper: %.4f (model not validated against hardware; no error figure)", paperProphetVsTriangel)
		}
		fmt.Printf("  %-22s %12.6f %-6s (%s is better)%s\n", m.Name, median(v), m.Unit, m.Better, note)
	}
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := samples[k]
		p50, _ := percentile(xs, 50)
		p99, beyond := percentile(xs, 99)
		fmt.Printf("  %-22s %12.6f ms     (lower is better) n=%d\n", k+"_p50_ms", p50, len(xs))
		fmt.Printf("  %-22s %12.6f ms     (lower is better) n=%d beyond=%d\n", k+"_p99_ms", p99, len(xs), beyond)
		out.Attempted++
		if beyond < 10 {
			out.Failed++
			reportProblems([]string{fmt.Sprintf("%s p99 has only %d samples beyond it", k, beyond)})
		}
	}
}

// runTraced alternates untraced and traced repeats (at least minRepeats of
// each) while the next pair, as long as the last, still fits in the budget.
// Every traced repeat must compute results identical to the untraced ones.
// Each per-layer metric is the median over the traced repeats, and the
// tracing overhead is the median traced CPU time minus the median untraced
// one.
func runTraced(name string, seed uint64, budget time.Duration) (result, error) {
	start := time.Now()
	out := result{Metrics: map[string]metricValue{}}
	var plainWall, tracedWall, plainCPU, tracedCPU []float64
	layers := map[string][]float64{}
	var digest0 string
	for i, last := 0, time.Duration(0); len(tracedWall) < minRepeats || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		for _, extra := range [][]string{nil, {"-trace", "1"}} {
			r, err := spawn(name, seed, i, extra...)
			if err != nil {
				return result{}, err
			}
			out.Attempted += r.res.Attempted + 1
			out.Failed += r.res.Failed
			reportProblems(r.res.Problems)
			if digest0 == "" {
				digest0 = r.res.Digest
			}
			if r.res.Digest != digest0 {
				out.Failed++
				reportProblems([]string{fmt.Sprintf("traced and untraced results differ (digest %s vs %s)", r.res.Digest, digest0)})
			}
			if extra == nil {
				plainWall = append(plainWall, r.res.WallS)
				plainCPU = append(plainCPU, r.res.CPUS)
				// The root Evaluator's baseline cache is only exercised
				// by the untraced run.
				for _, k := range []string{"baseline_hits", "baseline_misses"} {
					if v, ok := r.res.Values[k]; ok {
						layers["prophet."+k] = append(layers["prophet."+k], v)
					}
				}
				continue
			}
			tracedWall = append(tracedWall, r.res.WallS)
			tracedCPU = append(tracedCPU, r.res.CPUS)
			for k, v := range r.res.Layers {
				layers[k] = append(layers[k], v)
			}
		}
		last = time.Since(t0)
	}
	overhead := median(tracedCPU) - median(plainCPU)
	layers["trace.overhead_s"] = []float64{overhead}
	fmt.Printf("%d traced and %d untraced repeats in %.1fs: traced wall %.3fs, untraced wall %.3fs; traced CPU %.3fs, untraced CPU %.3fs (spread %.3f), overhead %.3fs\n",
		len(tracedWall), len(plainWall), time.Since(start).Seconds(), median(tracedWall), median(plainWall),
		median(tracedCPU), median(plainCPU), spreadOrZero(plainCPU), overhead)
	for _, m := range perLayer() {
		v := median(layers[m.Name])
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("  %-34s %14.6f %s\n", m.Name, v, m.Unit)
	}
	return out, nil
}

// cpuTime is the CPU time, user and system, this process has used so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// spreadOrZero is spread for printing: 0 when it is undefined.
func spreadOrZero(xs []float64) float64 {
	s, err := spread(xs)
	if err != nil {
		return 0
	}
	return s
}
