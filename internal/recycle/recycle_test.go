package recycle

import (
	"runtime"
	"sync"
	"testing"
)

type obj struct {
	buf   []int
	owner int
	rc    Slot
}

func newObjPool() *Pool[obj] {
	return New(func() *obj { return &obj{buf: make([]int, 64)} }, func(o *obj) *Slot { return &o.rc })
}

// TestPoolHandsOutOnce: the last released object is reused first, an
// object in use is never handed out a second time, and releasing one twice
// still lets only one user claim it.
func TestPoolHandsOutOnce(t *testing.T) {
	p := newObjPool()
	x, y := p.Get(), p.Get()
	p.Put(y)
	p.Put(x)
	if r := p.Get(); r != x {
		t.Fatal("the last released object was not reused first")
	}
	if r := p.Get(); r != y {
		t.Fatal("the earlier released object was not reused")
	}
	if d := p.Get(); d == x || d == y {
		t.Fatal("an object in use was handed out a second time")
	}
	p.Put(x)
	p.Put(x) // a second Put must not let two users share x
	if a, b := p.Get(), p.Get(); a == b {
		t.Fatal("a doubly released object was handed out twice")
	}
}

// TestPoolAllocationFree: neither Put nor a Get that finds a released
// object allocates, even with a GC cycle between them.
func TestPoolAllocationFree(t *testing.T) {
	p := newObjPool()
	objs := make([]*obj, maxFree)
	for i := range objs {
		objs[i] = p.Get()
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(objs)-1, func() {
		p.Put(objs[i])
		i++
		if i == len(objs)/2 {
			runtime.GC()
		}
	}); allocs != 0 {
		t.Fatalf("Put made %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(len(objs)-1, func() { p.Get() }); allocs != 0 {
		t.Fatalf("Get of a released object made %v allocations, want 0", allocs)
	}
}

// TestPoolBounded: the pool holds at most maxFree released objects.
func TestPoolBounded(t *testing.T) {
	p := newObjPool()
	objs := make([]*obj, maxFree+4)
	for i := range objs {
		objs[i] = p.Get()
	}
	for _, x := range objs {
		p.Put(x)
	}
	if len(p.free) != maxFree {
		t.Fatalf("pool holds %d released objects, want %d", len(p.free), maxFree)
	}
}

// TestPoolDropsAfterTwoGCs: an object released two GC cycles ago is not
// handed out again, as with a sync.Pool; one released a cycle ago is.
func TestPoolDropsAfterTwoGCs(t *testing.T) {
	p := newObjPool()
	x := p.Get()
	p.Put(x)
	runtime.GC()
	if r := p.Get(); r != x {
		t.Fatal("an object released one GC cycle ago was not reused")
	}
	p.Put(x)
	runtime.GC()
	runtime.GC()
	if r := p.Get(); r == x {
		t.Fatal("an object released two GC cycles ago was handed out")
	}
	if len(p.free) != 0 {
		t.Fatalf("pool still holds %d expired objects", len(p.free))
	}
}

// TestPoolConcurrent cycles objects through one pool from several
// goroutines: an object is never held by two of them at once.
func TestPoolConcurrent(t *testing.T) {
	p := newObjPool()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				x := p.Get()
				mu.Lock()
				holder := x.owner
				x.owner = g + 1
				mu.Unlock()
				if holder != 0 {
					t.Errorf("object handed to goroutine %d while goroutine %d holds it", g+1, holder)
					return
				}
				x.buf[0]++
				mu.Lock()
				x.owner = 0
				mu.Unlock()
				p.Put(x)
			}
		}()
	}
	wg.Wait()
}
