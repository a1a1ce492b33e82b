package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// gatedBackend is a fakeBackend that can slow down or block Execute, so
// tests can load peers unevenly and hold chunks in flight
// deterministically.
type gatedBackend struct {
	fakeBackend
	delay     time.Duration // non-zero: Execute sleeps this long first
	block     chan struct{} // non-nil: Execute waits until closed
	executing chan struct{} // non-nil: receives one token per Execute entry
}

func (p *gatedBackend) Execute(ctx context.Context, jobs []int) ([]string, error) {
	if p.executing != nil {
		p.executing <- struct{}{}
	}
	time.Sleep(p.delay)
	if p.block != nil {
		select {
		case <-p.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return p.fakeBackend.Execute(ctx, jobs)
}

// Placement decides where chunks run, never what they return: a fleet of
// unevenly loaded peers, granted many small chunks, merges output
// byte-identical to the no-backend local run.
func TestUnevenFleetMatchesLocalRun(t *testing.T) {
	jobs := jobsN(60)
	want := New(testConfig(nil, &localRunner{})).Dispatch(context.Background(), jobs)
	ring := []Backend[int, string]{
		&gatedBackend{fakeBackend: fakeBackend{name: "b0"}, delay: 700 * time.Microsecond},
		&gatedBackend{fakeBackend: fakeBackend{name: "b1"}},
		&gatedBackend{fakeBackend: fakeBackend{name: "b2"}, delay: 200 * time.Microsecond},
	}
	cfg := testConfig(ring, &localRunner{})
	cfg.MaxBatch = 2
	d := New(cfg)
	got := d.Dispatch(context.Background(), jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results diverge from local run")
	}
	if st := d.Stats(); st.Remote != int64(len(jobs)) || st.Local != 0 {
		t.Fatalf("stats %+v, want all %d jobs remote", st, len(jobs))
	}
}

// Concurrent Dispatch calls on one Dispatcher: no result cross-talk, and
// the shared counters sum exactly.
func TestConcurrentDispatchesShareFleetWithoutCrossTalk(t *testing.T) {
	ring := []Backend[int, string]{
		&fakeBackend{name: "b0"},
		&fakeBackend{name: "b1", failures: 3}, // exercise retry+failover under concurrency
	}
	cfg := testConfig(ring, &localRunner{})
	cfg.MaxBatch = 4
	cfg.Retries = 2
	d := New(cfg)

	const runs = 8
	var wg sync.WaitGroup
	outs := make([][]string, runs)
	jobSets := make([][]int, runs)
	for r := 0; r < runs; r++ {
		jobs := make([]int, 25)
		for i := range jobs {
			jobs[i] = r*1000 + i*3 // disjoint per run, so cross-talk is detectable
		}
		jobSets[r] = jobs
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r] = d.Dispatch(context.Background(), jobSets[r])
		}(r)
	}
	wg.Wait()
	total := 0
	for r := 0; r < runs; r++ {
		if !reflect.DeepEqual(outs[r], wantResults(jobSets[r])) {
			t.Fatalf("run %d results corrupted by concurrent dispatches", r)
		}
		total += len(jobSets[r])
	}
	st := d.Stats()
	if st.Remote+st.Local != int64(total) {
		t.Fatalf("Remote+Local = %d, want %d (counters must sum across concurrent runs)",
			st.Remote+st.Local, total)
	}
	if st.Cached != 0 || st.ShortLocal != 0 {
		t.Fatalf("unexpected counters in %+v", st)
	}
}

// Removing a peer mid-dispatch (heartbeat expiry) drains it: queued chunks
// reroute to the survivor or fail over, and no job is lost or duplicated.
func TestRemovePeerMidDispatchReroutesWithoutLossOrDup(t *testing.T) {
	release := make(chan struct{})
	slow := &gatedBackend{
		fakeBackend: fakeBackend{name: "slow"},
		block:       release,
		executing:   make(chan struct{}, 64),
	}
	fast := &fakeBackend{name: "fast"}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{slow, fast}, local)
	cfg.MaxBatch = 2
	cfg.MaxInFlight = 1 // one chunk per peer at a time: the rest stay queued
	d := New(cfg)

	jobs := jobsN(40)
	done := make(chan []string, 1)
	go func() { done <- d.Dispatch(context.Background(), jobs) }()

	<-slow.executing // slow now holds a chunk in flight
	if !d.Remove("slow") {
		t.Fatal("Remove(slow) = false, want true")
	}
	close(release) // let the in-flight chunk finish after the drain

	got := <-done
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge after mid-dispatch peer removal")
	}
	ran := map[int]int{}
	for _, j := range slow.received() {
		ran[j]++
	}
	for _, j := range fast.received() {
		ran[j]++
	}
	local.mu.Lock()
	for _, j := range local.jobs {
		ran[j]++
	}
	local.mu.Unlock()
	for _, j := range jobs {
		if ran[j] != 1 {
			t.Fatalf("job %d executed %d times across peers+local, want exactly 1", j, ran[j])
		}
	}
	if got := d.Peers(); !reflect.DeepEqual(got, []string{"fast"}) {
		t.Fatalf("Peers() = %v after drain, want [fast]", got)
	}
}

// A peer joining mid-dispatch starts receiving queued chunks.
func TestAddPeerMidDispatchReceivesWork(t *testing.T) {
	release := make(chan struct{})
	gate := &gatedBackend{
		fakeBackend: fakeBackend{name: "gate"},
		block:       release,
		executing:   make(chan struct{}, 64),
	}
	cfg := testConfig([]Backend[int, string]{gate}, &localRunner{})
	cfg.MaxBatch = 2
	cfg.MaxInFlight = 1
	d := New(cfg)

	jobs := jobsN(30)
	done := make(chan []string, 1)
	go func() { done <- d.Dispatch(context.Background(), jobs) }()

	<-gate.executing // dispatch is underway with a long queue behind gate
	helper := &fakeBackend{name: "helper"}
	if !d.Add(helper) {
		t.Fatal("Add(helper) = false, want true")
	}
	if d.Add(&fakeBackend{name: "helper"}) {
		t.Fatal("duplicate Add(helper) accepted")
	}

	// The idle newcomer takes queued chunks while gate is blocked.
	deadline := time.After(5 * time.Second)
	for len(helper.received()) == 0 {
		select {
		case <-deadline:
			t.Fatal("joined peer never received work")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	got := <-done
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge after mid-dispatch join")
	}
	helper.mu.Lock()
	defer helper.mu.Unlock()
	if len(helper.batches) == 0 {
		t.Fatal("joined peer executed no chunk")
	}
}

// DispatchFunc streams every result exactly once with the right value, and
// the returned slice still matches the ordered merge.
func TestDispatchFuncStreamsEveryResultOnce(t *testing.T) {
	ring := []Backend[int, string]{
		&fakeBackend{name: "b0"},
		&fakeBackend{name: "b1", failures: 1}, // retries must not re-emit
	}
	cache := newFakeCache()
	local := &localRunner{}
	cfg := testConfig(ring, local)
	cfg.MaxBatch = 3
	cfg.Retries = 3
	cfg.CacheGet = cache.get
	cfg.Pin = func(j int) bool { return j%5 == 0 }
	d := New(cfg)

	jobs := jobsN(40)
	cache.put(jobs[2], result(jobs[2])) // one warm entry streams first

	var mu sync.Mutex
	seen := map[int]string{}
	var order []int
	got := d.DispatchFunc(context.Background(), jobs, func(i int, r string) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := seen[i]; dup {
			t.Errorf("index %d emitted twice (%q then %q)", i, prev, r)
		}
		seen[i] = r
		order = append(order, i)
	})
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("returned merge diverges")
	}
	if len(seen) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(jobs))
	}
	for i, j := range jobs {
		if seen[i] != result(j) {
			t.Fatalf("index %d streamed %q, want %q", i, seen[i], result(j))
		}
	}
	if order[0] != 2 {
		t.Fatalf("first emitted index %d, want cache hit 2", order[0])
	}
	// Client-side merge by index reconstructs job order whatever the
	// completion order was.
	sorted := append([]int(nil), order...)
	sort.Ints(sorted)
	merged := make([]string, len(jobs))
	for _, i := range sorted {
		merged[i] = seen[i]
	}
	if !reflect.DeepEqual(merged, got) {
		t.Fatal("index-merged stream diverges from returned slice")
	}
}

// Streaming with no fleet still delivers progressively, chunked by
// MaxBatch.
func TestDispatchFuncNoFleetChunksLocally(t *testing.T) {
	cfg := testConfig(nil, &localRunner{})
	cfg.MaxBatch = 4
	d := New(cfg)
	jobs := jobsN(10)
	var emitted []int
	got := d.DispatchFunc(context.Background(), jobs, func(i int, r string) {
		emitted = append(emitted, i)
	})
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge")
	}
	if !reflect.DeepEqual(emitted, allIndexes(len(jobs))) {
		t.Fatalf("local streaming emitted %v, want ascending indexes", emitted)
	}
}

// A short local return is counted and logged instead of passing silently.
func TestShortLocalReturnCountedAndLogged(t *testing.T) {
	short := func(ctx context.Context, jobs []int) []string {
		out := make([]string, 0, len(jobs))
		for _, j := range jobs[:len(jobs)-2] {
			out = append(out, result(j))
		}
		return out
	}
	var logged []string
	d := New(Config[int, string]{
		Local: short,
		Logf:  func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	out := d.Dispatch(context.Background(), jobsN(6))
	if st := d.Stats(); st.ShortLocal != 2 {
		t.Fatalf("ShortLocal = %d, want 2", st.ShortLocal)
	}
	if len(logged) != 1 {
		t.Fatalf("logged %d warnings, want 1: %v", len(logged), logged)
	}
	if out[4] != "" || out[5] != "" {
		t.Fatalf("missing slots not zero-valued: %q %q", out[4], out[5])
	}
}

// Pinned batches are chunked by MaxBatch like remote shards.
func TestPinnedJobsChunkedByMaxBatch(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	local := func(ctx context.Context, jobs []int) []string {
		mu.Lock()
		sizes = append(sizes, len(jobs))
		mu.Unlock()
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = result(j)
		}
		return out
	}
	cfg := Config[int, string]{
		Backends: []Backend[int, string]{&fakeBackend{name: "b"}},
		Local:    local,
		MaxBatch: 3,
		Pin:      func(int) bool { return true },
	}
	d := New(cfg)
	jobs := jobsN(10)
	if got := d.Dispatch(context.Background(), jobs); !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge")
	}
	if want := []int{3, 3, 3, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("pinned batch sizes %v, want %v", sizes, want)
	}
}

// Retry backoff is jittered: the delay passed to sleep varies within
// [base/2, base] instead of being the fixed doubling sequence.
func TestRetryBackoffJitter(t *testing.T) {
	base := 100 * time.Millisecond
	for i := 0; i < 50; i++ {
		got := fullJitter(base)
		if got < base/2 || got > base {
			t.Fatalf("fullJitter(%v) = %v, outside [%v, %v]", base, got, base/2, base)
		}
	}
	if fullJitter(0) != 0 || fullJitter(1) != 1 {
		t.Fatal("degenerate durations must pass through")
	}
	// The dispatcher routes every retry wait through the jitter hook.
	flaky := &fakeBackend{name: "flaky", failures: 2}
	var waits []time.Duration
	cfg := testConfig([]Backend[int, string]{flaky}, &localRunner{})
	cfg.Retries = 3
	cfg.Backoff = 80 * time.Millisecond
	cfg.jitter = func(d time.Duration) time.Duration {
		waits = append(waits, d)
		return d / 4 // prove the jittered value is what gets slept
	}
	var slept []time.Duration
	cfg.sleep = func(_ context.Context, d time.Duration) { slept = append(slept, d) }
	d := New(cfg)
	jobs := jobsN(3)
	if got := d.Dispatch(context.Background(), jobs); !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge")
	}
	if want := []time.Duration{80 * time.Millisecond, 160 * time.Millisecond}; !reflect.DeepEqual(waits, want) {
		t.Fatalf("jitter saw %v, want doubling bases %v", waits, want)
	}
	if want := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Fatalf("slept %v, want jittered %v", slept, want)
	}
}

// Dispatch with an empty initial fleet uses peers added later.
func TestDispatchAfterJoinFromEmptyFleet(t *testing.T) {
	d := New(testConfig(nil, &localRunner{}))
	b := &fakeBackend{name: "late"}
	if !d.Add(b) {
		t.Fatal("Add failed")
	}
	jobs := jobsN(8)
	if got := d.Dispatch(context.Background(), jobs); !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Fatal("results diverge")
	}
	if len(b.received()) != len(jobs) {
		t.Fatalf("late peer executed %d jobs, want all %d", len(b.received()), len(jobs))
	}
	if !d.Remove("late") {
		t.Fatal("Remove failed")
	}
	if d.Remove("late") {
		t.Fatal("double Remove succeeded")
	}
	if d.NumPeers() != 0 {
		t.Fatalf("NumPeers = %d after drain, want 0", d.NumPeers())
	}
}
