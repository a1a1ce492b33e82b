// Package recycle hands the storage of released per-run objects (metadata
// tables, address compressors, temporal engines, trace-generator buffers)
// to the next run that builds one. Each run would otherwise allocate megabytes
// afresh and leave the old storage to the GC.
package recycle

import (
	"runtime/metrics"
	"sync"
)

// maxFree bounds the released objects one pool holds; a release past it is
// left to the GC.
const maxFree = 16

// Slot is the recycling state a pooled object carries as a field.
type Slot struct {
	free bool // on the pool's free list; guarded by the pool's mutex
}

// Pool recycles objects of type T through one free list, so an object
// released on one P is handed to a run on any other. Each release is
// stamped with the count of completed GC cycles, and one released two or
// more cycles ago is dropped, as a sync.Pool drops its victim cache: idle
// storage goes back to the GC instead of being held for good. (The drop
// happens on the pool's next Get or Put.) Neither Put nor a Get that finds
// a released object allocates.
type Pool[T any] struct {
	newT func() *T
	slot func(*T) *Slot

	mu     sync.Mutex
	free   []released[T] // oldest first, capacity maxFree
	cycles [1]metrics.Sample
}

type released[T any] struct {
	x     *T
	cycle uint64 // completed GC cycles at release
}

// New returns a pool whose Get builds objects with newT when none is
// released; slot returns an object's Slot field.
func New[T any](newT func() *T, slot func(*T) *Slot) *Pool[T] {
	p := &Pool[T]{newT: newT, slot: slot, free: make([]released[T], 0, maxFree)}
	p.cycles[0].Name = "/gc/cycles/total:gc-cycles"
	return p
}

// Get claims the most recently released object, or builds one when none
// is available. The caller resets the object before use.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	p.expire()
	if n := len(p.free); n > 0 {
		x := p.free[n-1].x
		p.free[n-1] = released[T]{}
		p.free = p.free[:n-1]
		p.slot(x).free = false
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	return p.newT()
}

// Put releases x for a later Get. The caller must not touch x afterwards.
// Releasing an object twice is harmless: it is still handed out once.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.slot(x)
	now := p.expire()
	if s.free || len(p.free) == cap(p.free) {
		return
	}
	s.free = true
	p.free = append(p.free, released[T]{x: x, cycle: now})
}

// expire drops the objects released two or more GC cycles ago and returns
// the count of completed cycles. p.mu is held.
func (p *Pool[T]) expire() uint64 {
	metrics.Read(p.cycles[:])
	now := p.cycles[0].Value.Uint64()
	n := 0
	for n < len(p.free) && p.free[n].cycle+2 <= now {
		n++
	}
	if n > 0 {
		kept := copy(p.free, p.free[n:])
		clear(p.free[kept:])
		p.free = p.free[:kept]
	}
	return now
}
