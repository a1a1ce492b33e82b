// The serving cache is an internal/memo instance; these tests pin the
// contract the serving tiers rely on. A lower tier, such as the durable
// store RunJob consults, runs inside the leader's compute.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/memo"
)

// fakeClock is a mutable time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCacheHitMissAndTTL(t *testing.T) {
	clk := newFakeClock()
	c := memo.New[any](8, time.Minute, clk.Now)
	var computes atomic.Int64
	get := func() (any, error) {
		v, err := c.Do(context.Background(), "k", func() (any, error) {
			computes.Add(1)
			return 42, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, err
	}

	if v, _ := get(); v != 42 {
		t.Fatalf("got %v, want 42", v)
	}
	if v, _ := get(); v != 42 {
		t.Fatalf("got %v, want 42", v)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1 (second call must hit)", n)
	}

	clk.Advance(2 * time.Minute)
	get()
	if n := computes.Load(); n != 2 {
		t.Fatalf("computed %d times after TTL expiry, want 2", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Expired != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=2 expired=1", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := memo.New[any](2, 0, nil)
	ctx := context.Background()
	compute := func(v int) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	c.Do(ctx, "a", compute(1))
	c.Do(ctx, "b", compute(2))
	c.Do(ctx, "a", compute(0)) // touch a: b becomes LRU
	c.Do(ctx, "c", compute(3)) // evicts b
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want entries=2 evictions=1", st)
	}
	var recomputed atomic.Bool
	v, _ := c.Do(ctx, "a", func() (any, error) { recomputed.Store(true); return -1, nil })
	if recomputed.Load() || v != 1 {
		t.Fatalf("a was evicted (got %v, recomputed=%v); LRU should have kept it", v, recomputed.Load())
	}
	if _, err := c.Do(ctx, "b", func() (any, error) { return nil, errors.New("recompute b") }); err == nil {
		t.Fatal("b survived eviction")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := c.Do(ctx, "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.Do(ctx, "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: v=%v err=%v", v, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats %+v: failed compute must not occupy the cache", st)
	}
}

func TestCacheCoalescing(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	const waiters = 7
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, waiters+1)
	do := func(i int) {
		defer wg.Done()
		v, err := c.Do(context.Background(), "k", func() (any, error) {
			computes.Add(1)
			close(started)
			<-release
			return "shared", nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i] = v
	}
	wg.Add(1)
	go do(0)
	<-started
	// The leader is now inside compute: every new request must coalesce.
	wg.Add(waiters)
	for i := 1; i <= waiters; i++ {
		go do(i)
	}
	// Wait until all waiters have registered before releasing.
	for {
		if c.Stats().Coalesced == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for %d concurrent requests, want 1", n, waiters+1)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("request %d got %v, want shared", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters {
		t.Fatalf("stats %+v, want misses=1 coalesced=%d", st, waiters)
	}
}

func TestCacheCoalescedWaiterHonorsContext(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func() (any, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// tiered is the leader's compute in the serving tiers: the lower tier
// (the durable store) answers first, and compute runs only on its miss.
// diskHits counts the lower tier's answers, which the memo counts as misses.
func tiered(diskHits *atomic.Int64, disk func() (any, bool), compute func() (any, error)) func() (any, error) {
	return func() (any, error) {
		if v, ok := disk(); ok {
			diskHits.Add(1)
			return v, nil
		}
		return compute()
	}
}

func TestCacheDiskTierOrdering(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	ctx := context.Background()
	var computes, probes, diskHits atomic.Int64
	disk := func(v any, ok bool) func() (any, bool) {
		return func() (any, bool) { probes.Add(1); return v, ok }
	}
	compute := func(v any) func() (any, error) {
		return func() (any, error) { computes.Add(1); return v, nil }
	}

	// Disk hit: compute never runs.
	if v, err := c.Do(ctx, "k", tiered(&diskHits, disk("from-disk", true), compute("computed"))); err != nil || v != "from-disk" {
		t.Fatalf("disk hit returned (%v, %v)", v, err)
	}
	if computes.Load() != 0 {
		t.Fatal("compute ran despite a disk hit")
	}
	// The disk hit populated the memory tier: next request must not probe.
	if v, _ := c.Do(ctx, "k", tiered(&diskHits, disk(nil, false), compute("computed"))); v != "from-disk" {
		t.Fatalf("memory tier after disk hit returned %v", v)
	}
	if probes.Load() != 1 {
		t.Fatalf("disk probed %d times, want 1 (memory tier must answer first)", probes.Load())
	}
	// Disk miss falls through to compute.
	if v, _ := c.Do(ctx, "k2", tiered(&diskHits, disk(nil, false), compute("computed"))); v != "computed" {
		t.Fatalf("disk miss returned %v", v)
	}
	st := c.Stats()
	if st.Hits != 1 || diskHits.Load() != 1 || st.Misses-diskHits.Load() != 1 || st.Coalesced != 0 {
		t.Fatalf("stats %+v diskHits=%d, want hits=1 diskHits=1 computed=1 coalesced=0", st, diskHits.Load())
	}
}

// TestCacheDiskProbePanicDegradesToCompute: a panicking lower-tier probe
// fails its own request with an error, never a crash or a hang, and leaves
// no entry, so the next request computes.
func TestCacheDiskProbePanicDegradesToCompute(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	var diskHits atomic.Int64
	compute := func() (any, error) { return "computed", nil }
	if _, err := c.Do(context.Background(), "k",
		tiered(&diskHits, func() (any, bool) { panic("corrupt probe") }, compute)); err == nil {
		t.Fatal("a panicking probe returned no error")
	}
	v, err := c.Do(context.Background(), "k", tiered(&diskHits, func() (any, bool) { return nil, false }, compute))
	if err != nil || v != "computed" {
		t.Fatalf("got (%v, %v), want computed value", v, err)
	}
	if st := c.Stats(); diskHits.Load() != 0 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v diskHits=%d, want two plain misses and one entry", st, diskHits.Load())
	}
}

// TestCacheDiskWindowCoalesces: requests arriving while the leader is
// still probing the disk tier coalesce onto it — the probe runs once.
func TestCacheDiskWindowCoalesces(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	const waiters = 4
	var probes, diskHits atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, waiters+1)
	do := func(i int) {
		defer wg.Done()
		v, err := c.Do(context.Background(), "k", tiered(&diskHits, func() (any, bool) {
			if probes.Add(1) == 1 {
				close(started)
				<-release
			}
			return "from-disk", true
		}, func() (any, error) { return nil, errors.New("must not compute") }))
		if err != nil {
			t.Error(err)
		}
		results[i] = v
	}
	wg.Add(1)
	go do(0)
	<-started
	wg.Add(waiters)
	for i := 1; i <= waiters; i++ {
		go do(i)
	}
	for c.Stats().Coalesced != waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := probes.Load(); n != 1 {
		t.Fatalf("disk probed %d times for %d concurrent requests, want 1", n, waiters+1)
	}
	for i, v := range results {
		if v != "from-disk" {
			t.Fatalf("request %d got %v, want from-disk", i, v)
		}
	}
	st := c.Stats()
	if diskHits.Load() != 1 || st.Misses != 1 || st.Coalesced != waiters {
		t.Fatalf("stats %+v diskHits=%d, want diskHits=1 computed=0 coalesced=%d", st, diskHits.Load(), waiters)
	}
}

// TestCacheTierAccountingOnFailure pins the accounting invariant for the
// failure path: a failing compute with coalesced waiters costs exactly one
// miss (the leader) and one coalesced count per waiter — waiters are never
// re-counted into another tier, so hits+misses+coalesced always equals the
// number of routed requests.
func TestCacheTierAccountingOnFailure(t *testing.T) {
	c := memo.New[any](8, time.Minute, nil)
	const waiters = 3
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	var failures, diskHits atomic.Int64
	do := func() {
		defer wg.Done()
		_, err := c.Do(context.Background(), "k", tiered(&diskHits,
			func() (any, bool) { return nil, false }, // disk always misses
			func() (any, error) {
				close(started)
				<-release
				return nil, boom
			}))
		if errors.Is(err, boom) {
			failures.Add(1)
		}
	}
	wg.Add(1)
	go do()
	<-started
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go do()
	}
	for c.Stats().Coalesced != waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if failures.Load() != waiters+1 {
		t.Fatalf("%d requests saw the error, want %d", failures.Load(), waiters+1)
	}
	st := c.Stats()
	if st.Hits != 0 || diskHits.Load() != 0 || st.Misses != 1 || st.Coalesced != waiters {
		t.Fatalf("stats %+v, want exactly misses=1 coalesced=%d and nothing else", st, waiters)
	}
	if total := st.Hits + st.Misses + st.Coalesced; total != waiters+1 {
		t.Fatalf("tier counters sum to %d for %d requests", total, waiters+1)
	}
	if st.Entries != 0 {
		t.Fatalf("failed computation occupies the cache: %+v", st)
	}
}
