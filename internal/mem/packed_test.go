package mem

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// accessesFromBytes turns arbitrary bytes into an Access sequence, 16 bytes
// a record (a short tail is zero-padded): Kind byte, PC selector byte, Dep
// (4 bytes), Gap (2 bytes) and a raw 64-bit address. Any Kind byte, Dep and
// Gap can appear, 256 distinct PCs, and addresses whose deltas wrap.
func accessesFromBytes(data []byte) []Access {
	var recs []Access
	for len(data) > 0 {
		var b [16]byte
		data = data[copy(b[:], data):]
		recs = append(recs, Access{
			PC:   Addr(b[1]) * 0x9e3779b97f4a7c15,
			Addr: Addr(binary.LittleEndian.Uint64(b[8:])),
			Kind: Kind(b[0]),
			Dep:  binary.LittleEndian.Uint32(b[2:]),
			Gap:  binary.LittleEndian.Uint16(b[6:]),
		})
	}
	return recs
}

// extremeTrace is a fuzz seed hitting every boundary at once: 200 distinct
// PCs (dictionary indices past 31 take multi-byte headers), Kind bytes
// spread over 0-255, Dep and Gap at their maxima, and addresses flipping
// between 0 and 2^64-1 so deltas wrap both ways.
func extremeTrace() []byte {
	var data []byte
	for i := range 400 {
		var b [16]byte
		b[0] = byte(i * 7)
		b[1] = byte(i % 200)
		if i%3 == 0 {
			binary.LittleEndian.PutUint32(b[2:], math.MaxUint32)
			binary.LittleEndian.PutUint16(b[6:], math.MaxUint16)
		}
		if i%2 == 1 {
			binary.LittleEndian.PutUint64(b[8:], math.MaxUint64-uint64(i))
		}
		data = append(data, b[:]...)
	}
	return data
}

// checkPackedReplay packs recs and replays the result three ways — Next
// alone, NextBlock at mixed block sizes, and the two interleaved — failing
// unless each yields recs exactly and then reports exhaustion.
func checkPackedReplay(t *testing.T, recs []Access) {
	t.Helper()
	p := Pack(NewSliceSource(recs))
	if p.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(recs))
	}
	sizes := []int{1, 3, 7, 64, 2, 4096}
	for mode := range 3 {
		src := p.Source()
		buf := make([]Access, 4096)
		var got []Access
		for step := 0; ; step++ {
			if src.Len() != len(recs)-len(got) {
				t.Fatalf("mode %d: Len = %d after %d records, want %d", mode, src.Len(), len(got), len(recs)-len(got))
			}
			if mode == 0 || mode == 2 && step%2 == 0 {
				a, ok := src.Next()
				if !ok {
					break
				}
				got = append(got, a)
				continue
			}
			blk := src.NextBlock(buf[:sizes[step%len(sizes)]])
			if len(blk) == 0 {
				break
			}
			got = append(got, blk...)
		}
		if len(got) != len(recs) {
			t.Fatalf("mode %d: replayed %d records, want %d", mode, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("mode %d: record %d = %+v, want %+v", mode, i, got[i], recs[i])
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("mode %d: Next succeeded after the end", mode)
		}
		if blk := src.NextBlock(buf); len(blk) != 0 {
			t.Fatalf("mode %d: NextBlock returned %d records after the end", mode, len(blk))
		}
	}
}

// FuzzPackedTrace checks that the packed encoding is lossless for every
// Access value and replays identically whichever way it is consumed.
func FuzzPackedTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add(extremeTrace())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPackedReplay(t, accessesFromBytes(data))
	})
}

// TestPackedRoundTrip replays a trace long enough to span many chunks, plus
// the fuzz seeds, through every consumption mode.
func TestPackedRoundTrip(t *testing.T) {
	rng := NewPRNG(1)
	long := make([]byte, 16*60_000)
	for i := range long {
		long[i] = byte(rng.Uint64())
	}
	for name, recs := range map[string][]Access{
		"empty":   nil,
		"basic":   testRecords(),
		"extreme": accessesFromBytes(extremeTrace()),
		"long":    accessesFromBytes(long),
	} {
		t.Run(name, func(t *testing.T) { checkPackedReplay(t, recs) })
	}
	if p := Pack(NewSliceSource(accessesFromBytes(long))); len(p.chunks) < 2 {
		t.Fatalf("long trace fits in %d chunk; the test needs several", len(p.chunks))
	}
}

// TestPackReusesFreshSource pins the sharing rule: packing an unread
// PackedSource returns its trace, while a partly read one is re-encoded
// from where it stands.
func TestPackReusesFreshSource(t *testing.T) {
	recs := testRecords()
	p := Pack(NewSliceSource(recs))
	if Pack(p.Source()) != p {
		t.Fatal("Pack re-encoded a fresh PackedSource")
	}
	src := p.Source()
	src.Next()
	rest := Pack(src)
	if rest == p || rest.Len() != len(recs)-1 {
		t.Fatalf("Pack of a partly read source: %d records, shared=%v", rest.Len(), rest == p)
	}
	if got, _ := rest.Source().Next(); got != recs[1] {
		t.Fatalf("first record of the rest = %+v, want %+v", got, recs[1])
	}
}

// TestPackedPrefix pins that a prefix is a view: it replays exactly the
// first n records from the trace's own chunks, packing its replay returns
// the view, and a prefix covering the whole trace is the trace itself.
func TestPackedPrefix(t *testing.T) {
	recs := make([]Access, 50_000) // several chunks
	for i := range recs {
		recs[i] = Access{PC: Addr(0x400000 + 8*(i%7)), Addr: Addr(64 * i), Dep: uint32(i), Gap: uint16(i)}
	}
	p := Pack(NewSliceSource(recs))
	if len(p.chunks) < 2 {
		t.Fatalf("%d chunks, want several", len(p.chunks))
	}
	for _, n := range []uint64{0, uint64(len(recs)), uint64(len(recs)) + 1} {
		if p.Prefix(n) != p {
			t.Errorf("Prefix(%d) is not the trace itself", n)
		}
	}
	for _, n := range []int{1, 1000, len(recs) - 1} {
		view := p.Prefix(uint64(n))
		if view.Len() != n || &view.chunks[0][0] != &p.chunks[0][0] {
			t.Fatalf("Prefix(%d): %d records, shared chunks %v", n, view.Len(), &view.chunks[0][0] == &p.chunks[0][0])
		}
		if Pack(view.Source()) != view {
			t.Fatalf("Pack re-encoded a fresh replay of Prefix(%d)", n)
		}
		got := Collect(view.Source(), 0)
		if !slices.Equal(got, recs[:n]) {
			t.Fatalf("Prefix(%d) replayed %d records, not the trace's first %d", n, len(got), n)
		}
	}
}

// TestPackedBytes checks the size accounting against the format. Four PCs
// take turns with small address steps, Dep and Gap, so each record takes a
// byte per field. Then 33 PCs each appear once: the 33rd's header takes a
// second byte, and its escaped Kind one more. The dictionary adds 8 bytes
// per PC.
func TestPackedBytes(t *testing.T) {
	recs := make([]Access, 1000)
	for i := range recs {
		recs[i] = Access{PC: Addr(0x400000 + 8*(i%4)), Addr: Addr(8 * (i / 4)), Gap: 3}
	}
	p := Pack(NewSliceSource(recs))
	if want := 4*len(recs) + 8*4; p.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", p.Bytes(), want)
	}
	recs = make([]Access, 33)
	for i := range recs {
		recs[i].PC = Addr(0x500000 + 8*i)
	}
	recs[32].Kind = 200
	p = Pack(NewSliceSource(recs))
	if want := 4*len(recs) + 2 + 8*len(recs); p.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", p.Bytes(), want)
	}
}

// TestAccessSize pins the record layout: Kind after Gap packs Access into
// 24 bytes.
func TestAccessSize(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Access{}) = %d, want 24", got)
	}
}
