package temporal

import (
	"runtime"
	"testing"

	"prophet/internal/mem"
)

// refCompressor is the compressor's contract as a Go map plus a slice.
type refCompressor struct {
	toIndex map[mem.Line]uint32
	toLine  []mem.Line
}

func newRefCompressor() *refCompressor {
	return &refCompressor{toIndex: map[mem.Line]uint32{}}
}

func (r *refCompressor) index(l mem.Line) uint32 {
	if idx, ok := r.toIndex[l]; ok {
		return idx
	}
	idx := uint32(len(r.toLine))
	r.toIndex[l] = idx
	r.toLine = append(r.toLine, l)
	return idx
}

// checkCompressor compares every mapping of c against r, both ways.
func checkCompressor(t *testing.T, c *Compressor, r *refCompressor) {
	t.Helper()
	if c.Entries() != len(r.toLine) {
		t.Fatalf("Entries = %d, reference %d", c.Entries(), len(r.toLine))
	}
	for idx, l := range r.toLine {
		if got, ok := c.Line(uint32(idx)); !ok || got != l {
			t.Fatalf("Line(%d) = %d,%v, reference %d", idx, got, ok, l)
		}
		if got, ok := c.Lookup(l); !ok || got != uint32(idx) {
			t.Fatalf("Lookup(%d) = %d,%v, reference %d", l, got, ok, idx)
		}
	}
	used := 0
	for _, v := range c.slots {
		if v != 0 {
			used++
		}
	}
	if used != len(r.toLine) {
		t.Fatalf("%d slots in use for %d lines", used, len(r.toLine))
	}
}

// modelSlots is where TestCompressorMatchesModel's compressor starts: far
// below the presize, so its rounds cross several doublings at a size the
// reference map keeps cheap.
const modelSlots = 1 << 15

// TestCompressorMatchesModel runs a seeded mix of Index, Lookup, Line and
// Entries calls against refCompressor, through several doublings of the
// table and across Release and reuse.
func TestCompressorMatchesModel(t *testing.T) {
	rng := mem.NewPRNG(42)
	c := &Compressor{}
	c.alloc(modelSlots)
	for round := range 3 {
		r := newRefCompressor()
		// Lines are drawn from a pool that outgrows the first round's
		// table several times; a third of the draws come from a hot set
		// near zero so line 0 and hits on early indices are exercised too.
		pool := 120_000 * (round + 1)
		for op := range 400_000 {
			var l mem.Line
			if rng.Intn(3) == 0 {
				l = mem.Line(rng.Intn(64))
			} else {
				l = mem.Line(rng.Uint64() % uint64(pool) * 7919)
			}
			switch rng.Intn(8) {
			case 0:
				got, ok := c.Lookup(l)
				want, wok := r.toIndex[l]
				if ok != wok || got != want {
					t.Fatalf("round %d op %d: Lookup(%d) = %d,%v, reference %d,%v", round, op, l, got, ok, want, wok)
				}
			case 1:
				idx := uint32(rng.Intn(len(r.toLine) + 8))
				got, ok := c.Line(idx)
				wok := int(idx) < len(r.toLine)
				if ok != wok || wok && got != r.toLine[idx] {
					t.Fatalf("round %d op %d: Line(%d) = %d,%v", round, op, idx, got, ok)
				}
			case 2:
				if c.Entries() != len(r.toLine) {
					t.Fatalf("round %d op %d: Entries = %d, reference %d", round, op, c.Entries(), len(r.toLine))
				}
			default:
				if got, want := c.Index(l), r.index(l); got != want {
					t.Fatalf("round %d op %d: Index(%d) = %d, reference %d", round, op, l, got, want)
				}
			}
		}
		if len(c.slots) <= modelSlots {
			t.Fatalf("round %d: %d lines never grew the table", round, len(r.toLine))
		}
		if round == 0 && len(c.slots) < 4*modelSlots {
			t.Fatalf("round 0: %d lines doubled the table fewer than twice", len(r.toLine))
		}
		checkCompressor(t, c, r)
		c.Release()
		if n := NewCompressor(); n != c {
			t.Fatal("the Released compressor was not reused")
		}
	}
	c.Release()
}

// TestCompressorWrapReplace exercises the path Index takes once all 2^31
// indices are in use, which no test can reach by filling the table: replace
// recycles the oldest index, deleting the old line's slot by backward
// shift. A small, nearly full table with clustered probe runs (including
// runs that wrap past the table's end) makes the shifts long.
func TestCompressorWrapReplace(t *testing.T) {
	c := &Compressor{}
	c.alloc(64)
	r := newRefCompressor()
	rng := mem.NewPRNG(9)
	next := mem.Line(1)
	for len(r.toLine) < cap(c.toLine) {
		if got, want := c.Index(next), r.index(next); got != want {
			t.Fatalf("Index(%d) = %d, reference %d", next, got, want)
		}
		next++
	}
	checkCompressor(t, c, r)
	for step := range 10 * len(r.toLine) {
		// Recycle indices in order, as Index does after the wrap.
		idx := c.wrap
		var l mem.Line
		if rng.Intn(4) == 0 {
			l = r.toLine[rng.Intn(len(r.toLine))] + 1000 // unrelated new line
		} else {
			l = next
			next++
		}
		if _, live := r.toIndex[l]; live {
			continue
		}
		if got := c.replace(l); got != idx {
			t.Fatalf("step %d: replace reused index %d, want %d", step, got, idx)
		}
		if c.wrap == uint32(len(r.toLine)) {
			c.wrap = 0 // keep the cursor inside this small table
		}
		delete(r.toIndex, r.toLine[idx])
		r.toIndex[l] = idx
		r.toLine[idx] = l
		checkCompressor(t, c, r)
		if got, ok := c.Lookup(l); !ok || got != idx {
			t.Fatalf("step %d: replaced line %d looks up as %d,%v", step, l, got, ok)
		}
	}
}

// TestCompressorWideLines checks the compressor against refCompressor when
// lines at or above 2^32 arrive after narrow ones: the high halves appear
// on the first wide line, zero for the indices already assigned, survive
// growth, the wrap path's replace and its backward-shift deletes, and are
// dropped when a Released compressor is reused, so it starts narrow again.
func TestCompressorWideLines(t *testing.T) {
	rng := mem.NewPRNG(5)
	narrow := func() mem.Line { return mem.Line(rng.Uint64() % (1 << 32)) }
	wide := func() mem.Line { return mem.Line(rng.Uint64()>>6 | 1<<32) }
	index := func(c *Compressor, r *refCompressor, l mem.Line) {
		t.Helper()
		if got, want := c.Index(l), r.index(l); got != want {
			t.Fatalf("Index(%#x) = %d, reference %d", l, got, want)
		}
	}

	c, r := &Compressor{}, newRefCompressor()
	c.alloc(modelSlots)
	for range 10_000 {
		index(c, r, narrow())
	}
	if c.hi != nil {
		t.Fatal("narrow lines allocated high halves")
	}
	// Wide and narrow lines mixed, with repeats, until the table has
	// doubled twice past the first wide line; the narrow lines' twins
	// (same low half, other high half) must stay distinct.
	slots := len(c.slots)
	for len(c.slots) < 4*slots {
		switch rng.Intn(4) {
		case 0:
			index(c, r, r.toLine[rng.Intn(len(r.toLine))])
		case 1:
			index(c, r, r.toLine[rng.Intn(len(r.toLine))]^1<<40)
		case 2:
			index(c, r, narrow())
		default:
			index(c, r, wide())
		}
	}
	if c.hi == nil || len(c.hi) != cap(c.toLine) {
		t.Fatalf("after wide lines: %d high halves for capacity %d", len(c.hi), cap(c.toLine))
	}
	checkCompressor(t, c, r)

	// The wrap path on a small, nearly full table of narrow lines, which
	// replace turns wide (and some back to narrow) one index at a time.
	w, wr := &Compressor{}, newRefCompressor()
	w.alloc(64)
	for l := mem.Line(1); len(wr.toLine) < cap(w.toLine); l++ {
		index(w, wr, l)
	}
	for step := range 10 * len(wr.toLine) {
		l := wide()
		if rng.Intn(3) == 0 {
			l = narrow()
		}
		if _, live := wr.toIndex[l]; live {
			continue
		}
		idx := w.wrap
		if got := w.replace(l); got != idx {
			t.Fatalf("step %d: replace reused index %d, want %d", step, got, idx)
		}
		if w.wrap == uint32(len(wr.toLine)) {
			w.wrap = 0 // keep the cursor inside this small table
		}
		delete(wr.toIndex, wr.toLine[idx])
		wr.toIndex[l] = idx
		wr.toLine[idx] = l
		checkCompressor(t, w, wr)
	}

	c.Release()
	if n := NewCompressor(); n != c {
		t.Fatal("the Released compressor was not reused")
	}
	if c.hi != nil {
		t.Fatal("the reused compressor kept its high halves")
	}
	r = newRefCompressor()
	for range 20_000 {
		index(c, r, narrow())
	}
	if c.hi != nil {
		t.Fatal("narrow lines after reuse allocated high halves")
	}
	checkCompressor(t, c, r)
	c.Release()
}

// TestCompressorPresizedForMaxTable: a new compressor holds as many lines
// as the 1 MB table has entries without allocating or growing, and the next
// line doubles it and still matches refCompressor.
func TestCompressorPresizedForMaxTable(t *testing.T) {
	n := DefaultTableConfig().MaxEntries()
	// Two GC cycles expire every released compressor, so NewCompressor
	// builds a new one instead of handing out one an earlier test grew.
	runtime.GC()
	runtime.GC()
	c := NewCompressor()
	defer c.Release()
	if len(c.slots) != 1<<18 || cap(c.toLine) != n {
		t.Fatalf("new compressor: %d slots for %d lines, want 2^18 for %d", len(c.slots), cap(c.toLine), n)
	}
	// AllocsPerRun calls fill twice, once unmeasured: each call indexes
	// half the lines. A table below the presize grows in the second half.
	next := mem.Line(0)
	fill := func() {
		for range n / 2 {
			next += 7919
			c.Index(next)
		}
	}
	if allocs := testing.AllocsPerRun(1, fill); allocs != 0 {
		t.Fatalf("indexing lines %d..%d made %v allocations, want 0", n/2, n, allocs)
	}
	if c.Entries() != n || len(c.slots) != 1<<18 {
		t.Fatalf("after %d lines: %d entries in %d slots", n, c.Entries(), len(c.slots))
	}
	r := newRefCompressor()
	for l := mem.Line(7919); l <= next; l += 7919 {
		r.index(l)
	}
	if got, want := c.Index(next+1), r.index(next+1); got != want {
		t.Fatalf("Index of line %d = %d, reference %d", n+1, got, want)
	}
	if len(c.slots) != 1<<19 {
		t.Fatalf("line %d left %d slots, want 2^19", n+1, len(c.slots))
	}
	checkCompressor(t, c, r)
}
