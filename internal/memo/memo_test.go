package memo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// outcome is what a Do call returned.
type outcome struct {
	val int
	err error
}

// flight is one computation the test holds open: its leader blocks in
// compute until the test sends an action ("complete", "fail" or "panic").
type flight struct {
	key     string
	val     int
	action  chan string
	leader  chan outcome
	waiters []chan outcome
}

// modelEntry is the reference model's view of one key.
type modelEntry struct {
	pending bool
	val     int
	expires int64
}

// model is the reference implementation: a map plus a recency list, front
// first, evicting completed entries from the back once the bound is
// exceeded.
type model struct {
	bound   int
	ttl     int64
	entries map[string]*modelEntry
	recency []string
	stats   Stats
}

func (m *model) touch(key string) {
	m.drop(key)
	m.recency = append([]string{key}, m.recency...)
}

func (m *model) drop(key string) {
	if i := slices.Index(m.recency, key); i >= 0 {
		m.recency = slices.Delete(m.recency, i, i+1)
	}
}

func (m *model) remove(key string) {
	delete(m.entries, key)
	m.drop(key)
}

func (m *model) evict() {
	for i := len(m.recency) - 1; i >= 0 && len(m.entries) > m.bound; i-- {
		if key := m.recency[i]; !m.entries[key].pending {
			m.remove(key)
			m.stats.Evictions++
		}
	}
}

func (m *model) pending() int {
	n := 0
	for _, e := range m.entries {
		if e.pending {
			n++
		}
	}
	return n
}

// TestMemoMatchesModel drives random Do, complete, fail, panic and
// clock-advance operations against a reference map plus recency list at
// bounds 1 to 4. After every operation the memo's counters must equal the
// model's, which pins that evictions take the least recently used completed
// entry, that failed and panicked computations leave no entry, and that
// every call is counted once; a hit must return the value the model holds.
func TestMemoMatchesModel(t *testing.T) {
	const (
		keys       = 6
		maxFlights = 3
		ttl        = 20
		ops        = 2000
	)
	for bound := 1; bound <= 4; bound++ {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("bound=%d/seed=%d", bound, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var clock atomic.Int64
				now := func() time.Time { return time.Unix(0, clock.Load()) }
				m := New[int](bound, ttl, now)
				ref := &model{bound: bound, ttl: ttl, entries: map[string]*modelEntry{}}
				flights := map[string]*flight{}
				var calls int64
				nextVal := 0

				wait := func(what string, ch <-chan outcome) outcome {
					t.Helper()
					select {
					case o := <-ch:
						return o
					case <-time.After(5 * time.Second):
						t.Fatalf("timed out waiting for %s", what)
						return outcome{}
					}
				}
				finish := func(f *flight, action string) {
					t.Helper()
					f.action <- action
					results := []outcome{wait("leader "+f.key, f.leader)}
					for _, w := range f.waiters {
						results = append(results, wait("waiter "+f.key, w))
					}
					for _, o := range results {
						switch {
						case action == "complete" && (o.err != nil || o.val != f.val):
							t.Fatalf("%s: completed flight returned (%d, %v), want %d", f.key, o.val, o.err, f.val)
						case action == "fail" && !errors.Is(o.err, errBoom):
							t.Fatalf("%s: failed flight returned err %v, want boom", f.key, o.err)
						case action == "panic" && o.err == nil:
							t.Fatalf("%s: panicked flight returned no error", f.key)
						}
					}
					delete(flights, f.key)
					if action == "complete" {
						e := ref.entries[f.key]
						e.pending, e.expires = false, clock.Load()+ref.ttl
						ref.evict()
						return
					}
					ref.remove(f.key)
				}

				for op := 0; op < ops; op++ {
					switch r := rng.Intn(10); {
					case r < 6: // Do
						key := fmt.Sprintf("k%d", rng.Intn(keys))
						e := ref.entries[key]
						expired := e != nil && !e.pending && clock.Load() >= e.expires
						if (e == nil || expired) && len(flights) >= maxFlights {
							continue // keep the number of open computations small
						}
						calls++
						if expired {
							ref.stats.Expired++
							ref.remove(key)
							e = nil
						}
						switch {
						case e == nil: // a leader
							ref.stats.Misses++
							ref.entries[key] = &modelEntry{pending: true}
							ref.touch(key)
							nextVal++
							f := &flight{key: key, val: nextVal, action: make(chan string), leader: make(chan outcome, 1)}
							flights[key] = f
							started := make(chan struct{})
							go func() {
								v, err := m.Do(context.Background(), key, func() (int, error) {
									close(started)
									switch <-f.action {
									case "fail":
										return 0, errBoom
									case "panic":
										panic("compute panicked")
									}
									return f.val, nil
								})
								f.leader <- outcome{v, err}
							}()
							select {
							case <-started:
							case o := <-f.leader:
								t.Fatalf("op %d: Do(%s) returned (%d, %v), want a new computation", op, key, o.val, o.err)
							}
						case e.pending: // coalesces onto the open flight
							ref.stats.Coalesced++
							ch := make(chan outcome, 1)
							f := flights[key]
							f.waiters = append(f.waiters, ch)
							go func() {
								v, err := m.Do(context.Background(), key, func() (int, error) { return -1, nil })
								ch <- outcome{v, err}
							}()
							for deadline := time.Now().Add(5 * time.Second); m.Stats().Coalesced != ref.stats.Coalesced; {
								if time.Now().After(deadline) {
									t.Fatalf("op %d: Do(%s) did not coalesce: %+v", op, key, m.Stats())
								}
								time.Sleep(50 * time.Microsecond)
							}
						default: // a hit
							ref.stats.Hits++
							ref.touch(key)
							ran := false
							v, err := m.Do(context.Background(), key, func() (int, error) { ran = true; return -1, nil })
							if ran || err != nil || v != e.val {
								t.Fatalf("op %d: Do(%s) = (%d, %v) ran=%v, want hit %d", op, key, v, err, ran, e.val)
							}
						}
					case r < 9: // finish an open flight
						if len(flights) == 0 {
							continue
						}
						var open []string
						for k := range flights {
							open = append(open, k)
						}
						slices.Sort(open)
						f := flights[open[rng.Intn(len(open))]]
						action := []string{"complete", "complete", "complete", "fail", "panic"}[rng.Intn(5)]
						if action == "complete" {
							ref.entries[f.key].val = f.val
						}
						finish(f, action)
					default: // advance the clock
						clock.Add(1 + rng.Int63n(ttl/2))
					}

					ref.stats.Entries = len(ref.entries)
					got := m.Stats()
					if got != ref.stats {
						t.Fatalf("op %d: stats %+v, model %+v", op, got, ref.stats)
					}
					if got.Hits+got.Misses+got.Coalesced != calls {
						t.Fatalf("op %d: hits+misses+coalesced = %d for %d calls", op, got.Hits+got.Misses+got.Coalesced, calls)
					}
					if held := got.Entries - ref.pending(); held > bound {
						t.Fatalf("op %d: %d completed entries over bound %d", op, held, bound)
					}
				}
				for _, f := range flights {
					finish(f, "complete")
				}
			})
		}
	}
}
