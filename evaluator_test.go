// Tests for the Evaluator/Session API: sweep determinism across worker
// counts, baseline-cache behavior, scheme-registry plumbing, context
// cancellation, and the error paths that replaced the old panics.
package prophet_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet"

	"prophet/internal/registry"
	"prophet/internal/sim"
)

func testJobs(t *testing.T) []prophet.Job {
	t.Helper()
	var ws []prophet.Workload
	for _, name := range []string{"sphinx3", "xalancbmk"} {
		w, err := prophet.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.WithRecords(30_000))
	}
	return prophet.Jobs(ws, prophet.Baseline, prophet.Triage, prophet.Triangel, prophet.Prophet)
}

// TestSweepParallelMatchesSerial pins the headline determinism contract:
// a Sweep on N workers returns bit-identical results to one worker.
func TestSweepParallelMatchesSerial(t *testing.T) {
	jobs := testJobs(t)
	serial, err := prophet.New(prophet.WithWorkers(1)).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := prophet.New(prophet.WithWorkers(8)).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result lengths: serial=%d parallel=%d want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: serial=%v parallel=%v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Stats != parallel[i].Stats {
			t.Errorf("job %d (%s/%s) diverged:\n serial   %+v\n parallel %+v",
				i, jobs[i].Workload.Name, jobs[i].Scheme, serial[i].Stats, parallel[i].Stats)
		}
	}
}

// TestBaselineCacheHitsReturnIdenticalStats verifies the cache contract:
// repeat runs hit the cache and return identical RunStats.
func TestBaselineCacheHitsReturnIdenticalStats(t *testing.T) {
	ev := prophet.New(prophet.WithWorkers(2))
	w, err := prophet.Find("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithRecords(30_000)

	first, err := ev.Run(context.Background(), w, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 1 {
		t.Fatalf("first run: %d cache misses, want 1", misses)
	}
	second, err := ev.Run(context.Background(), w, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached baseline differs:\n first  %+v\n second %+v", first, second)
	}
	hits, misses := ev.BaselineCacheStats()
	if misses != 1 || hits < 1 {
		t.Fatalf("cache stats after repeat: hits=%d misses=%d, want >=1 hit and exactly 1 miss", hits, misses)
	}

	// A different scheme on the same workload divides by the same cached
	// baseline — no extra miss.
	if _, err := ev.Run(context.Background(), w, prophet.Triage); err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 1 {
		t.Fatalf("triage run re-simulated the baseline: misses=%d", misses)
	}

	// A different trace length is a different trace: new cache entry.
	if _, err := ev.Run(context.Background(), w.WithRecords(20_000), prophet.Baseline); err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 2 {
		t.Fatalf("records override shared a cache entry: misses=%d, want 2", misses)
	}
}

// TestBaselineKeyNormalizesDefaultRecords: Records=0 and the explicit
// catalog-default length are the same trace and must share a cache entry.
func TestBaselineKeyNormalizesDefaultRecords(t *testing.T) {
	ev := prophet.New()
	w, err := prophet.Find("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(context.Background(), w, prophet.Baseline); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(context.Background(), w.WithRecords(220_000), prophet.Baseline); err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 1 {
		t.Fatalf("default-vs-explicit records did not share a cache entry: misses=%d", misses)
	}
}

// TestRegisterSchemeRejectsDuplicates covers registry plumbing end to end:
// built-ins are present, duplicates are rejected, and a custom scheme runs
// through the public API.
func TestRegisterSchemeRejectsDuplicates(t *testing.T) {
	ev := prophet.New()
	schemes := strings.Join(ev.Schemes(), ",")
	for _, want := range []string{"baseline", "triage", "triangel", "rpg2", "prophet"} {
		if !strings.Contains(schemes, want) {
			t.Fatalf("built-in scheme %q missing from %s", want, schemes)
		}
	}

	if err := prophet.RegisterScheme("triangel", func() registry.Scheme { return nil }); err == nil {
		t.Fatal("duplicate of built-in scheme accepted")
	}

	custom := prophet.SchemeFactory(func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			st := sim.Run(ctx.Sim, nil, nil, nil, nil, ctx.Factory())
			return registry.Result{Stats: st, Meta: map[string]int{"custom": 1}}, nil
		})
	})
	if err := prophet.RegisterScheme("test-noop", custom); err != nil {
		t.Fatal(err)
	}
	if err := prophet.RegisterScheme("test-noop", custom); err == nil {
		t.Fatal("duplicate custom scheme accepted")
	}

	w, _ := prophet.Find("sphinx3")
	rep, err := ev.RunDetailed(context.Background(), w.WithRecords(20_000), prophet.Scheme("test-noop"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Speedup != 1.0 {
		t.Fatalf("no-op custom scheme speedup %.3f, want exactly 1.0 (it is the baseline run)", rep.Stats.Speedup)
	}
	if rep.Meta["custom"] != 1 {
		t.Fatalf("custom scheme meta lost: %+v", rep.Meta)
	}
}

// TestSweepContextCancellation: a cancelled context aborts the sweep and
// marks undispatched jobs with the context error.
func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := prophet.New(prophet.WithWorkers(2))
	results, err := ev.Sweep(ctx, testJobs(t)...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep error = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d ran despite cancelled context", i)
		}
	}
}

// TestUnknownWorkloadSurfacesAsError pins the satellite fix: unknown names
// error out of Run (never panic), including hand-constructed workloads and
// WithRecords copies.
func TestUnknownWorkloadSurfacesAsError(t *testing.T) {
	ev := prophet.New()
	ctx := context.Background()

	if _, err := ev.Run(ctx, prophet.Workload{Name: "not_a_workload"}, prophet.Baseline); err == nil {
		t.Fatal("unknown hand-constructed workload accepted")
	}
	if _, err := ev.Run(ctx, prophet.Workload{Name: "nope"}.WithRecords(5_000), prophet.Baseline); err == nil {
		t.Fatal("WithRecords on an unknown workload must surface the error at Run")
	}
	if _, err := ev.Run(ctx, prophet.Workload{}, prophet.Baseline); err == nil {
		t.Fatal("zero workload accepted")
	}

	// A sweep keeps running: the bad row errors, the good row succeeds.
	good, _ := prophet.Find("sphinx3")
	results, err := ev.Sweep(ctx,
		prophet.Job{Workload: prophet.Workload{Name: "bogus"}, Scheme: prophet.Baseline},
		prophet.Job{Workload: good.WithRecords(20_000), Scheme: prophet.Baseline},
	)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("bogus sweep row did not error")
	}
	if results[1].Err != nil {
		t.Fatalf("valid sweep row failed: %v", results[1].Err)
	}

	// Unknown schemes error too, naming the registered set.
	if _, err := ev.Run(ctx, good, prophet.Scheme("warp-drive")); err == nil ||
		!strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown scheme error unhelpful: %v", err)
	}
}

// TestSessionMatchesDeprecatedPipeline: the one-input Figure 5 flow through
// a Session (profile, optimize, run on the same input) is bit-identical to
// the one-shot prophet scheme, the flow the removed Pipeline type also
// reproduced.
func TestSessionMatchesDeprecatedPipeline(t *testing.T) {
	w, _ := prophet.Find("omnetpp")
	w = w.WithRecords(80_000)

	ev := prophet.New(prophet.WithWorkers(1))
	s := ev.NewSession()
	if err := s.Profile(w); err != nil {
		t.Fatal(err)
	}
	bin := s.Optimize()
	got, err := s.Run(context.Background(), bin, w)
	if err != nil {
		t.Fatal(err)
	}

	want, err := prophet.New(prophet.WithWorkers(1)).Run(context.Background(), w, prophet.Prophet)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Session diverged from the prophet scheme:\n session %+v\n scheme  %+v", got, want)
	}
	if hints := bin.Hints(); len(hints) != bin.PCHints {
		t.Fatalf("Binary.Hints returned %d entries, PCHints says %d", len(hints), bin.PCHints)
	}
}

// TestDeprecatedPipelineErrNoPanic: an unknown workload is an error from
// every Session step that resolves one, never a panic.
func TestDeprecatedPipelineErrNoPanic(t *testing.T) {
	s := prophet.New().NewSession()
	bad := prophet.Workload{Name: "not_a_workload"}
	if err := s.Profile(bad); err == nil {
		t.Fatal("Session.Profile swallowed the unknown-workload error")
	}
	if s.Loops() != 0 {
		t.Fatalf("failed Profile still counted a loop: Loops = %d", s.Loops())
	}
	if _, err := s.Run(context.Background(), s.Optimize(), bad); err == nil {
		t.Fatal("Session.Run swallowed the unknown-workload error")
	}
}

// l1Stats is mcf's baseline under ev: of the options the L1 tests below
// vary, only the L1 prefetcher changes it.
func l1Stats(t *testing.T, ev *prophet.Evaluator) prophet.RunStats {
	t.Helper()
	r, err := ev.Run(context.Background(), prophet.Workload{Name: "mcf", Records: 20_000}, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestL1NoneHasItsOwnFingerprint: an engine without an L1 prefetcher says
// so in Options, which the store fingerprint and the batch echo carry, so
// neither a store nor a fleet peer can answer it with stride results.
func TestL1NoneHasItsOwnFingerprint(t *testing.T) {
	def, none := prophet.New(), prophet.New(prophet.WithL1Prefetcher(prophet.L1None))
	if def.Options() == none.Options() {
		t.Fatalf("L1None reports the default options %+v", none.Options())
	}
	if def.StoreFingerprint() == none.StoreFingerprint() {
		t.Fatalf("L1None shares the stride fingerprint %q", none.StoreFingerprint())
	}
}

// TestLaterL1OptionWins: WithL1Prefetcher after WithOptions selects the
// prefetcher that runs, as any later option overrides an earlier one.
func TestLaterL1OptionWins(t *testing.T) {
	ev := prophet.New(prophet.WithOptions(prophet.Options{L1Prefetcher: prophet.L1IPCP}), prophet.WithL1Prefetcher(prophet.L1Stride))
	stride := l1Stats(t, prophet.New())
	if got := l1Stats(t, ev); got != stride {
		t.Fatalf("stride selected last, simulated otherwise:\n got  %+v\n want %+v", got, stride)
	}
	if stride == l1Stats(t, prophet.New(prophet.WithL1Prefetcher(prophet.L1IPCP))) {
		t.Fatal("L1Stride and L1IPCP simulate alike; the test cannot tell them apart")
	}
}

// TestL1OptionsReportWhatRuns: Options reports the prefetcher simulated.
func TestL1OptionsReportWhatRuns(t *testing.T) {
	ev := prophet.New(prophet.WithOptions(prophet.Options{L1Prefetcher: prophet.L1IPCP}), prophet.WithL1Prefetcher(prophet.L1None))
	if got := ev.Options().L1Prefetcher; got != prophet.L1None {
		t.Fatalf("Options().L1Prefetcher = %v, want L1None", got)
	}
	none := l1Stats(t, prophet.New(prophet.WithL1Prefetcher(prophet.L1None)))
	if got := l1Stats(t, ev); got != none {
		t.Fatalf("L1None selected last, simulated otherwise:\n got  %+v\n want %+v", got, none)
	}
	if none == l1Stats(t, prophet.New(prophet.WithL1Prefetcher(prophet.L1IPCP))) {
		t.Fatal("L1None and L1IPCP simulate alike; the test cannot tell them apart")
	}
}

// TestOptionsResolvedFromDefaults: unset fields report the defaults that
// run, so equal engines share one fingerprint.
func TestOptionsResolvedFromDefaults(t *testing.T) {
	ev := prophet.New(prophet.WithOptions(prophet.Options{}))
	if got := ev.Options(); got != prophet.DefaultOptions() {
		t.Fatalf("Options() = %+v, want the defaults %+v", got, prophet.DefaultOptions())
	}
	if ev.StoreFingerprint() != prophet.New().StoreFingerprint() {
		t.Fatal("zero Options and the defaults simulate alike but fingerprint apart")
	}
}

// TestPriorityBitsCapped: an Equation 2 n past MaxPriorityBits runs as the
// cap, and Options and the store fingerprint say so.
func TestPriorityBitsCapped(t *testing.T) {
	capped := prophet.New(prophet.WithPriorityBits(prophet.MaxPriorityBits))
	for _, n := range []int{9, 64} {
		ev := prophet.New(prophet.WithPriorityBits(n))
		if got := ev.Options().PriorityBits; got != prophet.MaxPriorityBits {
			t.Errorf("WithPriorityBits(%d): Options().PriorityBits = %d, want %d", n, got, prophet.MaxPriorityBits)
		}
		if ev.StoreFingerprint() != capped.StoreFingerprint() {
			t.Errorf("WithPriorityBits(%d) fingerprints apart from the cap it runs as", n)
		}
	}
}

// streamGate holds the channel the "test-stream-block" scheme waits on
// before it runs; registerStreamBlock installs the scheme once per process.
var (
	streamGate          atomic.Pointer[chan struct{}]
	registerStreamBlock = sync.OnceValue(func() error {
		return prophet.RegisterScheme("test-stream-block", func() registry.Scheme {
			return registry.Func(func(ctx registry.Context) (registry.Result, error) {
				<-*streamGate.Load()
				return registry.Result{Stats: ctx.Baseline()}, nil
			})
		})
	})
)

// TestSweepStreamEmitsPastABlockedJob: without peers, SweepStream runs every
// job through one worker pool, so while job 0 is blocked the other worker
// finishes and emits every later job's row. Merged by index, the streamed
// rows equal the buffered Sweep.
func TestSweepStreamEmitsPastABlockedJob(t *testing.T) {
	if err := registerStreamBlock(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	streamGate.Store(&gate)
	var jobs []prophet.Job
	for k, name := range []string{"mcf", "omnetpp", "sphinx3"} {
		w, err := prophet.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.WithRecords(3000)
		if k == 0 {
			jobs = append(jobs, prophet.Job{Workload: w, Scheme: "test-stream-block"})
			continue
		}
		jobs = append(jobs, prophet.Jobs([]prophet.Workload{w}, prophet.Baseline, prophet.Triage, prophet.Triangel)...)
	}

	ev := prophet.New(prophet.WithWorkers(2))
	merged := make([]prophet.Result, len(jobs))
	rows := make(chan int, len(jobs))
	errc := make(chan error, 1)
	go func() {
		errc <- ev.SweepStream(context.Background(), func(i int, r prophet.Result) {
			merged[i] = r
			rows <- i
		}, jobs...)
	}()
	for range len(jobs) - 1 {
		select {
		case i := <-rows:
			if i == 0 {
				t.Fatal("job 0 emitted while its scheme was blocked")
			}
		case <-time.After(time.Minute):
			close(gate)
			t.Fatal("later rows were not emitted while job 0 was blocked")
		}
	}
	close(gate)
	if i := <-rows; i != 0 {
		t.Fatalf("last row emitted is %d, want job 0", i)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want, err := prophet.New(prophet.WithWorkers(2)).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, merged, want)
}
