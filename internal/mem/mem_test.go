package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		want Line
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{128, 2},
		{0xFFFF_FFFF_FFFF_FFFF, Line(0xFFFF_FFFF_FFFF_FFFF >> 6)},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.want {
			t.Errorf("LineOf(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		l := Line(raw >> LineShift)
		return LineOf(l.Addr()) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxLine(t *testing.T) {
	top := Addr(^uint64(0))
	if got := LineOf(top); got != MaxLine {
		t.Fatalf("LineOf(top address) = %v, want MaxLine %v", got, MaxLine)
	}
	if got, want := MaxLine.Addr(), top&^(LineBytes-1); got != want {
		t.Fatalf("MaxLine.Addr() = %#x, want %#x", got, want)
	}
}

func TestAccessInstructions(t *testing.T) {
	a := Access{Gap: 7}
	if got := a.Instructions(); got != 8 {
		t.Errorf("Instructions() = %d, want 8", got)
	}
	if got := (Access{}).Instructions(); got != 1 {
		t.Errorf("zero-gap Instructions() = %d, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("Kind strings wrong: %q %q", Load, Store)
	}
}

func TestSliceSourceAndLimit(t *testing.T) {
	recs := []Access{{PC: 1}, {PC: 2}, {PC: 3}}
	src := NewSliceSource(recs)
	got := Collect(Limit(src, 2), 0)
	if len(got) != 2 || got[0].PC != 1 || got[1].PC != 2 {
		t.Fatalf("Limit(2) collected %v", got)
	}
	// Original source continues from where Limit stopped.
	a, ok := src.Next()
	if !ok || a.PC != 3 {
		t.Fatalf("source should continue at PC 3, got %v ok=%v", a, ok)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source should be exhausted")
	}
}

// TestLimitSizedOnlyOverSized checks Limit reports an exact Len over a Sized
// source (the smaller of budget and remainder) and no Len over an unsized
// one, and that Collect sizes its slice from it.
func TestLimitSizedOnlyOverSized(t *testing.T) {
	recs := make([]Access, 10)
	for _, tc := range []struct{ budget, want int }{{4, 4}, {10, 10}, {25, 10}} {
		lim, ok := Limit(NewSliceSource(recs), uint64(tc.budget)).(Sized)
		if !ok {
			t.Fatal("Limit over a SliceSource is not Sized")
		}
		if lim.Len() != tc.want {
			t.Fatalf("Limit(%d).Len() = %d, want %d", tc.budget, lim.Len(), tc.want)
		}
		got := Collect(lim, 0)
		if len(got) != tc.want || cap(got) != tc.want {
			t.Fatalf("Limit(%d): collected len %d cap %d, want %d", tc.budget, len(got), cap(got), tc.want)
		}
		if lim.Len() != 0 {
			t.Fatalf("Limit(%d).Len() = %d after draining", tc.budget, lim.Len())
		}
	}
	n := 0
	unsized := FuncSource(func() (Access, bool) { n++; return Access{}, n <= 3 })
	if _, ok := Limit(unsized, 2).(Sized); ok {
		t.Fatal("Limit over an unsized source claims a length")
	}
}

func TestCollectMax(t *testing.T) {
	recs := make([]Access, 10)
	got := Collect(NewSliceSource(recs), 4)
	if len(got) != 4 || cap(got) != 4 {
		t.Fatalf("Collect max=4 returned len %d cap %d", len(got), cap(got))
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := FuncSource(func() (Access, bool) {
		if n >= 3 {
			return Access{}, false
		}
		n++
		return Access{PC: Addr(n)}, true
	})
	if got := len(Collect(src, 0)); got != 3 {
		t.Fatalf("FuncSource yielded %d records, want 3", got)
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed PRNGs diverged at step %d", i)
		}
	}
	c := NewPRNG(43)
	same := 0
	a = NewPRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestPRNGIntnRange(t *testing.T) {
	p := NewPRNG(7)
	for i := 0; i < 10000; i++ {
		v := p.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestPRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewPRNG(1).Intn(0)
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(9)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewPRNG(seed)
		perm := p.Perm(32)
		seen := make([]bool, 32)
		for _, v := range perm {
			if v < 0 || v >= 32 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPRNGUniformity(t *testing.T) {
	p := NewPRNG(11)
	const buckets, draws = 8, 80000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[p.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range count {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d deviates >20%% from %d", b, c, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	recs := []Access{
		{PC: 0x400123, Addr: 0x7fff0040, Kind: Load, Dep: 1, Gap: 9},
		{PC: 0x400321, Addr: 0x12345678, Kind: Store, Dep: 0, Gap: 0},
		{PC: 0x400555, Addr: 0xdeadbeef, Kind: Load, Dep: 300, Gap: 65535},
	}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceSource(recs))
	if err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("WriteTrace wrote %d records, want %d", n, len(recs))
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatalf("readTrace: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, addrs []uint64) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		recs := make([]Access, n)
		for i := 0; i < n; i++ {
			recs[i] = Access{
				PC:   Addr(pcs[i]),
				Addr: Addr(addrs[i]),
				Kind: Kind(pcs[i] % 2),
				Dep:  uint32(addrs[i] % 100),
				Gap:  uint16(pcs[i] % 1000),
			}
		}
		var buf bytes.Buffer
		if _, err := WriteTrace(&buf, NewSliceSource(recs)); err != nil {
			return false
		}
		got, err := readTrace(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := readTrace(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("readTrace accepted garbage")
	}
	if _, err := readTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("readTrace accepted empty input")
	}
}

func TestReadTraceRejectsTruncated(t *testing.T) {
	recs := []Access{{PC: 1}, {PC: 2}}
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readTrace(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("readTrace accepted truncated file")
	}
}

// forgedTrace returns a 43-byte trace: a valid header declaring 2^28
// records (the largest count NewTraceReader accepts) followed by one record.
func forgedTrace(t testing.TB) []byte {
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceSource([]Access{{PC: 1, Addr: 64}})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[12:], maxTraceRecords)
	return raw
}

// TestReadTraceForgedCountBounded: a header may claim any count up to
// maxTraceRecords, but readTrace must not allocate for it before the records
// arrive. Sizing the slice from the header made this 43-byte input allocate
// 8 GiB and die with a fatal out-of-memory error.
func TestReadTraceForgedCountBounded(t *testing.T) {
	data := forgedTrace(t)
	if len(data) != 43 {
		t.Fatalf("forged trace is %d bytes, want 43", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := readTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("readTrace = %d records, %v; want ErrBadTrace", len(recs), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("readTrace of a forged header allocated %d bytes", grew)
	}
}

// TestTraceReaderRefusesHugeCount: a header count past maxTraceRecords is
// refused by NewTraceReader itself, so every reader of a native trace
// (readTrace, the ingest "file" format) rejects it before decoding.
func TestTraceReaderRefusesHugeCount(t *testing.T) {
	data := forgedTrace(t)
	binary.LittleEndian.PutUint64(data[12:], maxTraceRecords+1)
	if tr, err := NewTraceReader(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("NewTraceReader = %v, %v; want ErrBadTrace", tr, err)
	}
}
