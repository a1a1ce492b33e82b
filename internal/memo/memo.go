// Package memo is the one memoization primitive of this module: a
// string-keyed cache that computes each key once and serves it many times,
// the way Prophet analyses a hot path once and benefits on every execution.
// Every layer that amortizes repeated work across requests is an instance of
// Memo: prophetd's serving tier (results across HTTP clients), the
// evaluator's baselines (the denominator every normalized metric shares),
// and the packed traces that cost far more to rebuild than to replay —
// graph workloads and parsed, validated trace files (mem.Traces). Catalog
// workloads are not held: every pass regenerates them.
//
// A Memo coalesces concurrent calls for one key onto a single computation
// (singleflight), holds at most a fixed number of completed entries (least
// recently used goes first), and optionally expires entries after a TTL.
// Errors and panics are never cached, so the next call retries; an entry
// still being computed is never evicted, because its waiters hold it.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"
)

// Stats is a point-in-time snapshot of a Memo's counters. Every Do call is
// counted exactly once, when it looks its key up, so Hits+Misses+Coalesced
// is the number of calls made.
type Stats struct {
	// Hits are calls answered by a completed entry.
	Hits int64
	// Misses are calls that ran compute: one per computation started,
	// whether it succeeds, fails or panics.
	Misses int64
	// Coalesced are calls that waited on a computation already in flight
	// and shared its outcome, error included.
	Coalesced int64
	// Expired counts entries dropped because their TTL had passed when
	// their key was looked up again.
	Expired int64
	// Evictions counts completed entries dropped to keep within the bound.
	Evictions int64
	// Entries is the number of entries held now, pending ones included.
	Entries int
}

// entry is one completed or in-flight computation. While pending, done is
// open and waiters block on it; val and err are written once, before done
// closes, so reads after the close need no lock.
type entry[V any] struct {
	key     string
	pending bool
	done    chan struct{}
	val     V
	err     error
	expires time.Time
	elem    *list.Element
}

// Memo is a bounded, coalescing, string-keyed cache of V. It is safe for
// concurrent use.
type Memo[V any] struct {
	max int           // completed entries kept; <= 0 means unbounded
	ttl time.Duration // entry lifetime; <= 0 means entries never expire
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*entry[V]
	lru     list.List // front = most recently used; values are *entry[V]
	stats   Stats
}

// New returns an empty Memo holding at most max completed entries (<= 0 for
// no bound) that expire ttl after they complete (<= 0 for never). now is the
// clock TTLs are measured on; nil means time.Now.
func New[V any](max int, ttl time.Duration, now func() time.Time) *Memo[V] {
	if now == nil {
		now = time.Now
	}
	return &Memo[V]{max: max, ttl: ttl, now: now, entries: map[string]*entry[V]{}}
}

// Do returns the value for key, running compute only when no live entry
// holds it. The first caller for a key becomes its leader and runs compute
// itself; callers arriving meanwhile wait for the leader and share its value
// or error, or return ctx's error if ctx ends first. The leader does not
// watch ctx: the computation belongs to everyone waiting on it. A compute
// that returns an error or panics leaves no entry; a panic reaches every
// caller as an error.
func (m *Memo[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.pending {
			m.stats.Coalesced++
			m.mu.Unlock()
			select {
			case <-e.done:
				return e.val, e.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		if m.ttl <= 0 || m.now().Before(e.expires) {
			m.stats.Hits++
			m.lru.MoveToFront(e.elem)
			m.mu.Unlock()
			return e.val, nil
		}
		m.stats.Expired++
		m.remove(e)
	}
	m.stats.Misses++
	e := &entry[V]{key: key, pending: true, done: make(chan struct{})}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.mu.Unlock()

	val, err := run(compute)

	m.mu.Lock()
	e.val, e.err, e.pending = val, err, false
	if err != nil {
		m.remove(e)
	} else {
		if m.ttl > 0 {
			e.expires = m.now().Add(m.ttl)
		}
		m.evict()
	}
	close(e.done)
	m.mu.Unlock()
	return val, err
}

// run calls compute, turning a panic into an error so that a failing
// leader still releases its waiters.
func run[V any](compute func() (V, error)) (val V, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("memo: compute panicked: %v", p)
		}
	}()
	return compute()
}

// remove unlinks an entry. Callers hold m.mu.
func (m *Memo[V]) remove(e *entry[V]) {
	delete(m.entries, e.key)
	m.lru.Remove(e.elem)
}

// evict drops least recently used completed entries until the memo fits its
// bound or holds only pending entries. Callers hold m.mu.
func (m *Memo[V]) evict() {
	if m.max <= 0 {
		return
	}
	for el := m.lru.Back(); el != nil && m.lru.Len() > m.max; {
		e := el.Value.(*entry[V])
		el = el.Prev()
		if e.pending {
			continue
		}
		m.remove(e)
		m.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (m *Memo[V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = len(m.entries)
	return st
}
