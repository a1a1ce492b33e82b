package core

import (
	"fmt"
	"slices"
	"testing"

	"prophet/internal/mem"
)

// refVictimBuffer is the MVB as it was stored before the flat word layout:
// a slice of entries per set, grown by append, each entry with a 64-bit
// clock stamp. The model test holds VictimBuffer to its every answer.
type refVictimBuffer struct {
	setBits    uint
	assoc      int
	candidates int
	sets       [][]refVBEntry
	clock      uint64

	inserts uint64
	hits    uint64
}

type refVBEntry struct {
	tag     uint16
	target  uint32
	counter uint8
	valid   bool
	last    uint64
}

func newRefVictimBuffer(entries, assoc, candidates int) *refVictimBuffer {
	setCount := 1
	for setCount*assoc < entries {
		setCount <<= 1
	}
	setBits := uint(0)
	for 1<<setBits < setCount {
		setBits++
	}
	return &refVictimBuffer{setBits: setBits, assoc: assoc, candidates: candidates, sets: make([][]refVBEntry, setCount)}
}

func (b *refVictimBuffer) locate(srcKey uint32) (int, uint16) {
	return int(srcKey & (1<<b.setBits - 1)), uint16((srcKey >> b.setBits) & vbTagMask)
}

func (b *refVictimBuffer) Insert(srcKey, target uint32) {
	set, tag := b.locate(srcKey)
	entries := b.sets[set]
	b.clock++
	for i := range entries {
		e := &entries[i]
		if e.valid && e.tag == tag && e.target == target {
			e.last = b.clock
			return
		}
	}
	b.inserts++
	for i := range entries {
		if !entries[i].valid {
			entries[i] = refVBEntry{tag: tag, target: target, valid: true, last: b.clock}
			return
		}
	}
	if len(entries) < b.assoc {
		b.sets[set] = append(entries, refVBEntry{tag: tag, target: target, valid: true, last: b.clock})
		return
	}
	vi := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].counter < entries[vi].counter ||
			(entries[i].counter == entries[vi].counter && entries[i].last < entries[vi].last) {
			vi = i
		}
	}
	entries[vi] = refVBEntry{tag: tag, target: target, valid: true, last: b.clock}
}

func (b *refVictimBuffer) AppendLookup(dst []uint32, srcKey, exclude uint32) []uint32 {
	set, tag := b.locate(srcKey)
	entries := b.sets[set]
	found := 0
	b.clock++
	for i := range entries {
		e := &entries[i]
		if !e.valid || e.tag != tag || e.target == exclude {
			continue
		}
		if e.counter < vbCounterMax {
			e.counter++
		}
		e.last = b.clock
		dst = append(dst, e.target)
		found++
		if found >= b.candidates {
			break
		}
	}
	if found > 0 {
		b.hits++
	}
	return dst
}

// topRecency is the highest recency field in b.
func topRecency(b *VictimBuffer) uint64 {
	var top uint64
	for _, w := range b.words {
		top = max(top, w>>vbRecShift&vbRecMax)
	}
	return top
}

// checkSet compares srcKey's set in b and in the reference: the same
// entries in the same ways with the same counters, and recencies in the
// order of the reference's clock stamps, ties included.
func checkSet(t *testing.T, op int, b *VictimBuffer, ref *refVictimBuffer, srcKey uint32) {
	t.Helper()
	ways, _ := b.locate(srcKey)
	set, _ := ref.locate(srcKey)
	entries := ref.sets[set]
	for i, w := range ways {
		if i >= len(entries) {
			if w != 0 {
				t.Fatalf("op %d: way %d holds %#x, reference has it empty", op, i, w)
			}
			continue
		}
		e := entries[i]
		if w&vbValid == 0 || uint16(w>>vbTagShift&vbTagMask) != e.tag || uint32(w&vbTargetMask) != e.target || uint8(w>>vbCtrShift) != e.counter {
			t.Fatalf("op %d: way %d holds %#x, reference %+v", op, i, w, e)
		}
		for j := range i {
			ri, rj := w>>vbRecShift&vbRecMax, ways[j]>>vbRecShift&vbRecMax
			if (ri < rj) != (e.last < entries[j].last) || (ri == rj) != (e.last == entries[j].last) {
				t.Fatalf("op %d: ways %d and %d have recencies %d and %d, reference stamps %d and %d", op, i, j, ri, rj, e.last, entries[j].last)
			}
		}
	}
}

// driveMVB runs ops seeded operations on a new VictimBuffer and the
// reference, failing at the first answer or set state they disagree on.
// Source keys come from keys distinct values and targets from targets, so
// entries repeat, refresh, collide on tags and get evicted. For a one-set
// buffer it returns how often the set's recencies were renumbered.
func driveMVB(t *testing.T, entries, assoc, candidates, ops int, keys, targets uint64, seed uint64) (renumbered int) {
	t.Helper()
	got := NewVictimBuffer(entries, assoc, candidates)
	want := newRefVictimBuffer(entries, assoc, candidates)
	rng := mem.NewPRNG(seed)
	var gotBuf, wantBuf []uint32
	top := uint64(0)
	for op := range ops {
		key := uint32(rng.Uint64() % keys * 0x9e3779b1)
		target := uint32(rng.Uint64() % targets)
		if rng.Uint64()%3 == 0 {
			got.Insert(key, target)
			want.Insert(key, target)
		} else {
			exclude := ^uint32(0)
			if rng.Uint64()%2 == 0 {
				exclude = target
			}
			gotBuf = got.AppendLookup(gotBuf[:0], key, exclude)
			wantBuf = want.AppendLookup(wantBuf[:0], key, exclude)
			if !slices.Equal(gotBuf, wantBuf) {
				t.Fatalf("op %d: AppendLookup(%#x, %#x) = %v, reference %v", op, key, exclude, gotBuf, wantBuf)
			}
		}
		oneSet := len(got.words) == assoc
		if oneSet { // a fall in the set's top recency is a renumbering
			now := topRecency(got)
			if now < top {
				renumbered++
			}
			top = now
		}
		// A one-set run is millions of ops: check its state around each
		// renumbering and every 64th op in between.
		if !oneSet || op%64 == 0 || top < 64 || top > vbRecMax-64 {
			checkSet(t, op, got, want, key)
		}
	}
	gi, gh := got.Stats()
	if gi != want.inserts || gh != want.hits {
		t.Fatalf("Stats = (%d inserts, %d hits), reference (%d, %d)", gi, gh, want.inserts, want.hits)
	}
	return renumbered
}

// TestMVBMatchesReference drives the flat MVB and the slice-of-sets
// reference with the same seeded Insert/AppendLookup sequences at 1, 2 and
// 4 candidates: every returned target, and the insert and hit counts, must
// agree. Multi-candidate lookups stamp several entries at once, the tie the
// victim choice must break by way order.
func TestMVBMatchesReference(t *testing.T) {
	for _, candidates := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("candidates=%d/seed=%d", candidates, seed), func(t *testing.T) {
				driveMVB(t, 256, 4, candidates, 40_000, 512, 24, seed)
				driveMVB(t, DefaultMVBEntries, 4, candidates, 20_000, 1<<16, 8, seed)
				driveMVB(t, 64, 2, candidates, 20_000, 64, 6, seed)
			})
		}
	}
}

// TestMVBRecencyRenumbering runs long sequences on one 4-way set, so the
// set's recency passes its 20-bit field at least twice and is renumbered;
// the victims chosen across every renumbering must still be the
// reference's. Few keys and targets keep entries resident for long
// stretches beside ones replaced at every insert, and 4 candidates stamp
// several entries at once.
func TestMVBRecencyRenumbering(t *testing.T) {
	for _, candidates := range []int{1, 4} {
		t.Run(fmt.Sprintf("candidates=%d", candidates), func(t *testing.T) {
			if n := driveMVB(t, 4, 4, candidates, 3<<20, 2, 7, uint64(candidates)); n < 2 {
				t.Fatalf("recencies renumbered %d times, want at least 2", n)
			}
		})
	}
}

// TestRenumberKeepsOrderAndTies: renumbering maps a set's recencies to
// 0, 1, ... in order, keeps equal ones equal, leaves every other field and
// the empty ways alone, and returns the next recency.
func TestRenumberKeepsOrderAndTies(t *testing.T) {
	word := func(counter, rec, target uint64) uint64 {
		return counter<<vbCtrShift | rec<<vbRecShift | vbValid | 5<<vbTagShift | target
	}
	ways := []uint64{word(1, vbRecMax, 10), word(3, 7, 11), word(0, 900_000, 12), word(2, 7, 13), 0}
	if next := renumber(ways); next != 3 {
		t.Fatalf("renumber returned %d, want 3", next)
	}
	want := []uint64{word(1, 2, 10), word(3, 0, 11), word(0, 1, 12), word(2, 0, 13), 0}
	if !slices.Equal(ways, want) {
		t.Fatalf("renumbered ways %#x, want %#x", ways, want)
	}
	full := []uint64{word(0, vbRecMax, 1), word(0, 3, 2)}
	if rec := stamp(full); rec != 2 || full[0]>>vbRecShift&vbRecMax != 1 || full[1]>>vbRecShift&vbRecMax != 0 {
		t.Fatalf("stamp at the field's limit = %d with ways %#x, want 2 after renumbering to 1, 0", rec, full)
	}
}

// TestMVBReleaseRecyclesStorage: a released engine's victim-buffer words
// serve the next engine built, whose buffer starts empty whatever the
// released one held, at the new engine's candidate count.
func TestMVBReleaseRecyclesStorage(t *testing.T) {
	p := New(testConfig(), hintsAllWays(), nil)
	for k := range uint32(1000) {
		p.MVB().Insert(k, k+1)
	}
	words := &p.MVB().words[0]
	p.Release()
	cfg := testConfig()
	cfg.MVBCandidates = 2
	q := New(cfg, hintsAllWays(), nil)
	defer q.Release()
	b := q.MVB()
	if &b.words[0] != words {
		t.Fatal("the released engine's victim-buffer storage was not reused")
	}
	if ins, hits := b.Stats(); ins != 0 || hits != 0 || b.candidates != 2 {
		t.Fatalf("recycled buffer: stats (%d, %d), candidates %d", ins, hits, b.candidates)
	}
	if got := b.Lookup(5, ^uint32(0)); len(got) != 0 {
		t.Fatalf("recycled buffer still answers %v for a released entry", got)
	}
}

// TestProphetReleaseRecyclesMVB: the victim buffer lives in the engine,
// Release drops the reference to it, and an engine recycled with the
// feature off exposes none.
func TestProphetReleaseRecyclesMVB(t *testing.T) {
	p := New(testConfig(), hintsAllWays(), nil)
	if p.MVB() != &p.victims {
		t.Fatal("the victim buffer is not the engine's own")
	}
	p.Release()
	if p.MVB() != nil {
		t.Fatal("Release kept the victim buffer reference")
	}
	cfg := testConfig()
	cfg.Features.MVB = false
	q := New(cfg, hintsAllWays(), nil)
	if q != p || q.MVB() != nil {
		t.Fatalf("recycled engine %p (released %p) exposes victim buffer %p with the feature off", q, p, q.MVB())
	}
	q.Release()
}

// TestProphetReleaseRecyclesHintBuffer: a rebuilt engine's hint buffer
// holds exactly the new hint set, at the new configuration's capacity,
// whatever the released engine had installed.
func TestProphetReleaseRecyclesHintBuffer(t *testing.T) {
	hints := hintsAllWays()
	for pc := range mem.Addr(3) {
		hints.PC[0x400+pc] = Hint{Insert: true, Priority: uint8(pc)}
	}
	installed := func(p *Prophet) int {
		n := 0
		for pc := range hints.PC {
			if _, ok := p.hints.Lookup(pc); ok {
				n++
			}
		}
		return n
	}
	cfg := testConfig()
	cfg.HintBufferEntries = 1
	p := New(cfg, hints, nil)
	if n := installed(p); n != 1 {
		t.Fatalf("a 1-entry hint buffer holds %d hints", n)
	}
	p.Release()
	q := New(testConfig(), hints, nil)
	if n := installed(q); q != p || n != 3 {
		t.Fatalf("recycled engine %p (released %p) holds %d of 3 hints", q, p, n)
	}
	q.Release()
	r := New(testConfig(), hintsAllWays(), nil)
	defer r.Release()
	if n := installed(r); r != q || n != 0 {
		t.Fatalf("recycled engine %p (released %p) holds %d stale hints", r, q, n)
	}
}
