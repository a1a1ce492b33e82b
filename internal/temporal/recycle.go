package temporal

import (
	"sync"
	"sync/atomic"
	"weak"
)

// recycler hands the storage of released per-run objects (metadata tables,
// compressors) to the next run that builds one. Each engine run would
// otherwise allocate megabytes afresh and leave the old storage to the GC.
//
// pool holds the strong references, so idle objects are reclaimed after a
// couple of GC cycles like any sync.Pool entry. A sync.Pool keeps a Put in
// the releasing P's private slot, out of reach of a goroutine that has
// since moved to another P; one goroutine alternating between two Ps would
// then build a second object while the first sits idle. last is a weak
// reference to the most recent release that any P can claim. An object
// claimed through last may still sit in the pool, so every handout must
// win a compare-and-swap on the object's free flag.
type recycler[T any] struct {
	// free returns the object's flag: true from release until claimed.
	free func(*T) *atomic.Bool
	pool sync.Pool
	mu   sync.Mutex
	last weak.Pointer[T]
}

// get claims a released object, or returns nil when none is available.
// The caller resets the object before use.
func (r *recycler[T]) get() *T {
	r.mu.Lock()
	w := r.last
	r.last = weak.Pointer[T]{}
	r.mu.Unlock()
	if x := w.Value(); x != nil && r.free(x).CompareAndSwap(true, false) {
		return x
	}
	for {
		x, _ := r.pool.Get().(*T)
		if x == nil || r.free(x).CompareAndSwap(true, false) {
			return x
		}
	}
}

// put releases x for a later get. Releasing an object twice is harmless:
// it is still handed out once.
func (r *recycler[T]) put(x *T) {
	r.free(x).Store(true)
	r.mu.Lock()
	r.last = weak.Make(x)
	r.mu.Unlock()
	r.pool.Put(x)
}
