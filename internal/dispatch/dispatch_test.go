package dispatch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// result computes the canonical (deterministic) outcome for a job, so any
// executor — fake backend or local runner — produces identical results and
// equivalence checks mirror the real system's determinism.
func result(j int) string { return "r" + strconv.Itoa(j) }

// fakeBackend records the batches it receives and can be programmed to
// fail its first N Execute calls or to return short results.
type fakeBackend struct {
	name string

	mu       sync.Mutex
	batches  [][]int
	failures int  // fail this many calls before succeeding
	short    bool // return len-1 results
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Execute(ctx context.Context, jobs []int) ([]string, error) {
	f.mu.Lock()
	f.batches = append(f.batches, append([]int(nil), jobs...))
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	short := f.short
	f.mu.Unlock()
	if fail {
		return nil, errors.New(f.name + ": injected failure")
	}
	out := make([]string, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, result(j))
	}
	if short && len(out) > 0 {
		out = out[:len(out)-1]
	}
	return out, nil
}

// received flattens every job the backend has executed, in arrival order.
func (f *fakeBackend) received() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for _, b := range f.batches {
		out = append(out, b...)
	}
	return out
}

// localRunner mimics the in-process evaluator: infallible, records jobs.
type localRunner struct {
	mu   sync.Mutex
	jobs []int
}

func (l *localRunner) run(ctx context.Context, jobs []int) []string {
	l.mu.Lock()
	l.jobs = append(l.jobs, jobs...)
	l.mu.Unlock()
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = result(j)
	}
	return out
}

func testConfig(backends []Backend[int, string], local *localRunner) Config[int, string] {
	return Config[int, string]{
		Backends: backends,
		Local:    local.run,
		Backoff:  time.Nanosecond,
		sleep:    func(context.Context, time.Duration) {},
	}
}

func jobsN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * 3 // arbitrary non-identity values
	}
	return out
}

func wantResults(jobs []int) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = result(j)
	}
	return out
}

// The core equivalence: N backends, 1 backend, and no backends all produce
// the same ordered results.
func TestDispatchOrderIdenticalAcrossRingSizes(t *testing.T) {
	jobs := jobsN(40)
	want := wantResults(jobs)
	for _, n := range []int{0, 1, 2, 3, 7} {
		var ring []Backend[int, string]
		for i := 0; i < n; i++ {
			ring = append(ring, &fakeBackend{name: fmt.Sprintf("b%d", i)})
		}
		local := &localRunner{}
		d := New(testConfig(ring, local))
		got := d.Dispatch(context.Background(), jobs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ring of %d: results %v, want %v", n, got, want)
		}
	}
}

// Placement is a pure function of fleet state: two dispatches over
// identical idle fleets send every job to the same backend.
func TestShardAssignmentDeterministic(t *testing.T) {
	jobs := jobsN(30)
	mk := func() ([]Backend[int, string], []*fakeBackend) {
		var ring []Backend[int, string]
		var fs []*fakeBackend
		for i := 0; i < 3; i++ {
			f := &fakeBackend{name: fmt.Sprintf("b%d", i)}
			ring = append(ring, f)
			fs = append(fs, f)
		}
		return ring, fs
	}
	ring1, fs1 := mk()
	ring2, fs2 := mk()
	New(testConfig(ring1, &localRunner{})).Dispatch(context.Background(), jobs)
	New(testConfig(ring2, &localRunner{})).Dispatch(context.Background(), jobs)
	for i := range fs1 {
		// Chunks run concurrently, so compare what arrived, not when.
		a, b := fs1[i].received(), fs2[i].received()
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("backend %d saw %v then %v across identical dispatches", i, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("backend %d received no jobs; placement not spreading", i)
		}
	}
}

// A backend that stays down fails over to local: results stay correct and
// ordered, each failed job runs locally exactly once, and no other job
// leaks to the local runner.
func TestPersistentFailureFailsOverWithoutLossOrDup(t *testing.T) {
	jobs := jobsN(24)
	good := &fakeBackend{name: "good"}
	bad := &fakeBackend{name: "bad", failures: 1 << 30}
	local := &localRunner{}
	d := New(testConfig([]Backend[int, string]{good, bad}, local))
	got := d.Dispatch(context.Background(), jobs)
	if want := wantResults(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
	// Every job ran exactly once for real: good's successes plus local's.
	ran := map[int]int{}
	for _, j := range good.received() {
		ran[j]++
	}
	local.mu.Lock()
	for _, j := range local.jobs {
		ran[j]++
	}
	localCount := len(local.jobs)
	local.mu.Unlock()
	for _, j := range jobs {
		if ran[j] != 1 {
			t.Fatalf("job %d executed %d times across good+local, want exactly 1", j, ran[j])
		}
	}
	st := d.Stats()
	if st.Failovers != int64(localCount) || st.Failovers == 0 {
		t.Fatalf("Failovers = %d, want %d (>0)", st.Failovers, localCount)
	}
	if st.Remote+st.Local != int64(len(jobs)) {
		t.Fatalf("Remote+Local = %d, want %d", st.Remote+st.Local, len(jobs))
	}
}

// A transient failure is absorbed by a retry without failover.
func TestRetryThenSuccess(t *testing.T) {
	jobs := jobsN(10)
	flaky := &fakeBackend{name: "flaky", failures: 1}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{flaky}, local)
	cfg.Retries = 3
	d := New(cfg)
	got := d.Dispatch(context.Background(), jobs)
	if want := wantResults(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
	st := d.Stats()
	if st.Retries != 1 || st.Failovers != 0 {
		t.Fatalf("Retries=%d Failovers=%d, want 1/0", st.Retries, st.Failovers)
	}
	if st.Local != 0 {
		t.Fatalf("Local=%d, want 0", st.Local)
	}
}

// A backend returning the wrong number of results is a failure, not a
// silent misalignment.
func TestShortResponseFailsOver(t *testing.T) {
	jobs := jobsN(8)
	short := &fakeBackend{name: "short", short: true}
	local := &localRunner{}
	d := New(testConfig([]Backend[int, string]{short}, local))
	got := d.Dispatch(context.Background(), jobs)
	if want := wantResults(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
	if d.Stats().Failovers != int64(len(jobs)) {
		t.Fatalf("Failovers = %d, want %d", d.Stats().Failovers, len(jobs))
	}
}

// MaxBatch splits a shard into bounded chunks that still cover every job.
func TestMaxBatchChunks(t *testing.T) {
	jobs := jobsN(10)
	b := &fakeBackend{name: "b"}
	cfg := testConfig([]Backend[int, string]{b}, &localRunner{})
	cfg.MaxBatch = 3
	d := New(cfg)
	got := d.Dispatch(context.Background(), jobs)
	if want := wantResults(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.batches) != 4 { // 3+3+3+1
		t.Fatalf("got %d batches, want 4", len(b.batches))
	}
	seen := map[int]bool{}
	for _, batch := range b.batches {
		if len(batch) > 3 {
			t.Fatalf("batch of %d exceeds MaxBatch 3", len(batch))
		}
		for _, j := range batch {
			if seen[j] {
				t.Fatalf("job %d appears in two batches", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("batches cover %d jobs, want %d", len(seen), len(jobs))
	}
}

// Pinned jobs bypass the ring entirely.
func TestPinnedJobsRunLocal(t *testing.T) {
	jobs := jobsN(12)
	b := &fakeBackend{name: "b"}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{b}, local)
	cfg.Pin = func(j int) bool { return j%2 == 0 }
	d := New(cfg)
	got := d.Dispatch(context.Background(), jobs)
	if want := wantResults(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v", got, want)
	}
	for _, j := range b.received() {
		if j%2 == 0 {
			t.Fatalf("pinned job %d reached the backend", j)
		}
	}
	local.mu.Lock()
	defer local.mu.Unlock()
	for _, j := range local.jobs {
		if j%2 != 0 {
			t.Fatalf("unpinned job %d ran locally", j)
		}
	}
}

// A cancelled context stops retrying and degrades to the local runner,
// which owns surfacing the context error per job.
func TestCancelledContextSkipsRetries(t *testing.T) {
	jobs := jobsN(6)
	bad := &fakeBackend{name: "bad", failures: 1 << 30}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{bad}, local)
	cfg.Retries = 50
	d := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Dispatch(ctx, jobs)
	bad.mu.Lock()
	calls := len(bad.batches)
	bad.mu.Unlock()
	if calls != 0 {
		t.Fatalf("cancelled dispatch still issued %d backend calls", calls)
	}
	local.mu.Lock()
	defer local.mu.Unlock()
	if len(local.jobs) != len(jobs) {
		t.Fatalf("local ran %d jobs, want all %d", len(local.jobs), len(jobs))
	}
}

func TestEmptyDispatch(t *testing.T) {
	d := New(testConfig(nil, &localRunner{}))
	if got := d.Dispatch(context.Background(), nil); len(got) != 0 {
		t.Fatalf("empty dispatch returned %v", got)
	}
}

func TestMissingLocalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without Local should panic")
		}
	}()
	New(Config[int, string]{})
}

// An idle peer takes chunks before busier ones; ties go to the
// earliest-joined peer.
func TestLeastLoadedPrefersIdleBackend(t *testing.T) {
	got := place([]int{2, 0, 1}, 4, 3)
	if want := []int{1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("place = %v, want %v (idle peer 1 first, busiest peer 0 never)", got, want)
	}
}

func TestLeastLoadedAllAtCapacity(t *testing.T) {
	if got := place([]int{4, 4}, 4, 1); len(got) != 0 {
		t.Fatalf("place = %v, want nothing granted (chunk stays queued)", got)
	}
	// Granting stops at capacity: the rest of the queue waits.
	if got, want := place([]int{3, 2}, 4, 5), []int{1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("place = %v, want %v", got, want)
	}
}

// Placement is a pure function: same loads, same grants.
func TestAssignDeterministic(t *testing.T) {
	want := []int{1, 0, 1, 0, 1}
	for i := 0; i < 10; i++ {
		if got := place([]int{2, 1, 3}, 4, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: place = %v, want %v", i, got, want)
		}
	}
}

// cacheOf builds CacheGet/CachePut hooks over a plain map guarded by a
// mutex, mimicking the durable result store.
type fakeCache struct {
	mu   sync.Mutex
	vals map[int]string
	puts []int
}

func newFakeCache(seed ...int) *fakeCache {
	c := &fakeCache{vals: map[int]string{}}
	for _, j := range seed {
		c.vals[j] = result(j)
	}
	return c
}

func (c *fakeCache) get(j int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[j]
	return v, ok
}

func (c *fakeCache) put(j int, r string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[j] = r
	c.puts = append(c.puts, j)
}

func TestCacheGetBypassesBackendsAndLocal(t *testing.T) {
	jobs := jobsN(8)
	cache := newFakeCache(jobs[0], jobs[3], jobs[7])
	b := &fakeBackend{name: "b"}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{b}, local)
	cfg.CacheGet = cache.get
	d := New(cfg)

	out := d.Dispatch(context.Background(), jobs)
	if !reflect.DeepEqual(out, wantResults(jobs)) {
		t.Fatalf("out = %v, want %v (cache hits merged in job order)", out, wantResults(jobs))
	}
	for _, j := range b.received() {
		if _, ok := cache.get(j); ok {
			t.Fatalf("cached job %d was dispatched to a backend", j)
		}
	}
	if len(local.jobs) != 0 {
		t.Fatalf("local ran %v despite healthy backend", local.jobs)
	}
	st := d.Stats()
	if st.Cached != 3 || st.Remote != 5 {
		t.Fatalf("stats %+v, want cached=3 remote=5", st)
	}
}

func TestAllCachedDispatchesNothing(t *testing.T) {
	jobs := jobsN(5)
	cache := newFakeCache(jobs...)
	b := &fakeBackend{name: "b"}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{b}, local)
	cfg.CacheGet = cache.get
	d := New(cfg)

	out := d.Dispatch(context.Background(), jobs)
	if !reflect.DeepEqual(out, wantResults(jobs)) {
		t.Fatalf("out = %v, want %v", out, wantResults(jobs))
	}
	if got := b.received(); len(got) != 0 {
		t.Fatalf("backend executed %v on a fully warm cache", got)
	}
	if len(local.jobs) != 0 {
		t.Fatalf("local executed %v on a fully warm cache", local.jobs)
	}
	if st := d.Stats(); st.Cached != 5 || st.Remote != 0 || st.Local != 0 {
		t.Fatalf("stats %+v, want cached=5 and no execution", st)
	}
}

func TestCachePutRecordsRemoteResultsOnly(t *testing.T) {
	jobs := jobsN(6)
	cache := newFakeCache()
	good := &fakeBackend{name: "good"}
	bad := &fakeBackend{name: "bad", failures: 99} // fails over to local
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{good, bad}, local)
	cfg.CacheGet = cache.get
	cfg.CachePut = cache.put
	d := New(cfg)

	out := d.Dispatch(context.Background(), jobs)
	if !reflect.DeepEqual(out, wantResults(jobs)) {
		t.Fatalf("out = %v, want %v", out, wantResults(jobs))
	}
	// Every remote-computed job is persisted, with the value the backend
	// returned; failed-over jobs went through the local runner, whose own
	// engine is responsible for write-through.
	remote := good.received()
	cache.mu.Lock()
	puts := append([]int(nil), cache.puts...)
	cache.mu.Unlock()
	if len(puts) != len(remote) {
		t.Fatalf("CachePut saw %v, want exactly the remote jobs %v", puts, remote)
	}
	for _, j := range remote {
		if v, ok := cache.get(j); !ok || v != result(j) {
			t.Fatalf("remote job %d not persisted (got %q, %v)", j, v, ok)
		}
	}
	for _, j := range local.jobs {
		for _, p := range puts {
			if p == j {
				t.Fatalf("failed-over job %d was double-persisted by the dispatcher", j)
			}
		}
	}
}

func TestCachedPinnedJobsStillSkipExecution(t *testing.T) {
	jobs := jobsN(4)
	cache := newFakeCache(jobs[1]) // jobs[1] is both pinned and cached
	b := &fakeBackend{name: "b"}
	local := &localRunner{}
	cfg := testConfig([]Backend[int, string]{b}, local)
	cfg.CacheGet = cache.get
	cfg.Pin = func(j int) bool { return j == jobs[1] }
	d := New(cfg)

	out := d.Dispatch(context.Background(), jobs)
	if !reflect.DeepEqual(out, wantResults(jobs)) {
		t.Fatalf("out = %v, want %v", out, wantResults(jobs))
	}
	if len(local.jobs) != 0 {
		t.Fatalf("local ran %v; the only pinned job was cached", local.jobs)
	}
}
