package prefetch

import (
	"testing"

	"prophet/internal/mem"
)

func TestNone(t *testing.T) {
	var n None
	if n.Name() != "none" {
		t.Error("None name")
	}
	if got := n.OnAccess(1, 2, false); got != nil {
		t.Errorf("None prefetched %v", got)
	}
}

func TestStrideDetectsAfterWarmup(t *testing.T) {
	s := NewStride(8)
	pc := mem.Addr(0x400100)
	var got []mem.Line
	for i := 0; i < 5; i++ {
		got = s.OnAccess(pc, mem.Line(10+i*2), false)
	}
	if len(got) != 8 {
		t.Fatalf("degree-8 stride issued %d prefetches, want 8", len(got))
	}
	// Last access at line 18, stride 2: expect 20,22,...
	for i, l := range got {
		want := mem.Line(18 + 2*(i+1))
		if l != want {
			t.Errorf("prefetch %d = %v, want %v", i, l, want)
		}
	}
}

func TestStrideNoPrefetchWithoutPattern(t *testing.T) {
	s := NewStride(8)
	pc := mem.Addr(0x400100)
	lines := []mem.Line{10, 99, 3, 512, 7, 1024}
	for _, l := range lines {
		if got := s.OnAccess(pc, l, false); len(got) != 0 {
			t.Fatalf("random stream triggered prefetches %v at line %v", got, l)
		}
	}
}

func TestStrideZeroDeltaIgnored(t *testing.T) {
	s := NewStride(4)
	pc := mem.Addr(0x1)
	s.OnAccess(pc, 5, false)
	if got := s.OnAccess(pc, 5, false); got != nil {
		t.Fatalf("repeat access produced prefetches %v", got)
	}
}

func TestStrideRetrainsOnNewStride(t *testing.T) {
	s := NewStride(2)
	pc := mem.Addr(0x2)
	for i := 0; i < 4; i++ {
		s.OnAccess(pc, mem.Line(i), false)
	}
	// Break the pattern twice; confidence must drop and no prefetch fire.
	if got := s.OnAccess(pc, 100, false); got != nil {
		t.Fatalf("stride break still prefetched %v", got)
	}
	// New stride of 3 needs the old confidence to decay and the new
	// stride to be confirmed before prefetching resumes.
	if got := s.OnAccess(pc, 103, false); got != nil {
		t.Fatalf("prefetch fired before new stride confirmed: %v", got)
	}
	if got := s.OnAccess(pc, 106, false); got != nil {
		t.Fatalf("prefetch fired while old confidence still decaying: %v", got)
	}
	relearned := s.OnAccess(pc, 109, false)
	if len(relearned) == 0 {
		t.Fatal("stride not re-learned after confirmations")
	}
	if relearned[0] != 112 {
		t.Fatalf("first prefetch = %v, want 112", relearned[0])
	}
}

func TestStrideNegative(t *testing.T) {
	s := NewStride(4)
	pc := mem.Addr(0x3)
	for i := 0; i < 5; i++ {
		s.OnAccess(pc, mem.Line(1000-i*3), false)
	}
	got := s.OnAccess(pc, mem.Line(1000-5*3), false)
	if len(got) != 4 {
		t.Fatalf("negative stride issued %d prefetches", len(got))
	}
	if got[0] != mem.Line(1000-6*3) {
		t.Fatalf("negative stride prefetch = %v, want %v", got[0], mem.Line(1000-6*3))
	}
}

func TestStrideTableConflictResets(t *testing.T) {
	s := NewStride(2)
	// Two PCs that alias to the same table index cannot corrupt each
	// other into false prefetches: the entry resets on PC mismatch.
	pcA := mem.Addr(4)
	pcB := pcA + mem.Addr(tableSize*4) // same pcIndex
	if pcIndex(pcA) != pcIndex(pcB) {
		t.Skip("aliasing assumption broken by index hash")
	}
	for i := 0; i < 4; i++ {
		s.OnAccess(pcA, mem.Line(i*2), false)
	}
	if got := s.OnAccess(pcB, 1000, false); got != nil {
		t.Fatalf("aliased PC inherited prefetch state: %v", got)
	}
}

// checkEndsAt fails t unless got is non-empty, never passes mem.MaxLine,
// and ends exactly at it: a run that reaches the top of the address space
// emits the lines up to it and nothing beyond.
func checkEndsAt(t *testing.T, got []mem.Line) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no prefetches near MaxLine")
	}
	for _, l := range got {
		if l > mem.MaxLine {
			t.Fatalf("prefetch %v beyond MaxLine %v (all: %v)", l, mem.MaxLine, got)
		}
	}
	if last := got[len(got)-1]; last != mem.MaxLine {
		t.Fatalf("last prefetch = %v, want MaxLine %v (all: %v)", last, mem.MaxLine, got)
	}
}

func TestStrideStopsAtMaxLine(t *testing.T) {
	s := NewStride(8)
	pc := mem.Addr(0x400100)
	var got []mem.Line
	for i := 6; i >= 2; i-- {
		got = s.OnAccess(pc, mem.MaxLine-mem.Line(2*i), false)
	}
	// Last access at MaxLine-4, stride 2: MaxLine-2 and MaxLine only.
	if len(got) != 2 {
		t.Fatalf("degree-8 stride issued %v near MaxLine, want 2 lines", got)
	}
	checkEndsAt(t, got)
}

func TestIPCPStopsAtMaxLine(t *testing.T) {
	// Constant stride from one PC.
	p := NewIPCP()
	pc := mem.Addr(0x500)
	var got []mem.Line
	for i := 7; i >= 3; i-- {
		got = p.OnAccess(pc, mem.MaxLine-mem.Line(i), true)
	}
	checkEndsAt(t, got)

	// Global stream from many PCs, so no per-PC stride forms.
	p = NewIPCP()
	for i := 11; i >= 2; i-- {
		got = p.OnAccess(mem.Addr(0x600+i%6*8), mem.MaxLine-mem.Line(i), false)
	}
	checkEndsAt(t, got)
}

func TestIPCPConstantStrideClass(t *testing.T) {
	p := NewIPCP()
	pc := mem.Addr(0x500)
	var got []mem.Line
	for i := 0; i < 6; i++ {
		got = p.OnAccess(pc, mem.Line(i*4), true)
	}
	if len(got) == 0 {
		t.Fatal("IPCP CS class did not fire on constant stride")
	}
	if got[0] != mem.Line(5*4+4) {
		t.Fatalf("CS prefetch starts at %v, want %v", got[0], mem.Line(24))
	}
}

func TestIPCPGlobalStream(t *testing.T) {
	p := NewIPCP()
	// Sequential lines from alternating PCs: per-PC stride is 2, but we
	// need several same-PC observations; use many PCs so CS never forms,
	// but the global stream does.
	var got []mem.Line
	for i := 0; i < 12; i++ {
		pc := mem.Addr(0x600 + i%6*8)
		got = p.OnAccess(pc, mem.Line(100+i), false)
	}
	if len(got) == 0 {
		t.Fatal("IPCP GS class did not fire on a global sequential stream")
	}
}

func TestIPCPNextLineOnMissHeavyIrregular(t *testing.T) {
	p := NewIPCP()
	pc := mem.Addr(0x700)
	rng := mem.NewPRNG(5)
	var got []mem.Line
	for i := 0; i < 20; i++ {
		got = p.OnAccess(pc, mem.Line(rng.Intn(1<<20)), false)
	}
	// Miss-heavy irregular PC should degrade to NL (1 prefetch) at most.
	if len(got) > 1 {
		t.Fatalf("irregular miss-heavy PC issued %d prefetches, want <=1 (NL)", len(got))
	}
}

func TestIPCPName(t *testing.T) {
	if NewIPCP().Name() != "ipcp" || NewStride(8).Name() != "stride" {
		t.Error("prefetcher names wrong")
	}
}

// TestResetMatchesFresh: a trained prefetcher, once Reset, proposes
// exactly what a new one does on the same accesses.
func TestResetMatchesFresh(t *testing.T) {
	rng := mem.NewPRNG(5)
	accesses := make([][2]uint64, 4000)
	var pos [8]uint64
	for i := range accesses {
		k := rng.Uint64() % 8
		pos[k] += k%3 + 1 // per-PC strides 1-3, streams for k%3 == 0
		line := k<<24 + pos[k]
		if rng.Uint64()%5 == 0 {
			line = rng.Uint64() % (1 << 20)
		}
		accesses[i] = [2]uint64{0x400000 + k*0x40, line}
	}
	replay := func(p L1Prefetcher) (out []mem.Line) {
		for i, a := range accesses {
			out = append(out, p.OnAccess(mem.Addr(a[0]), mem.Line(a[1]), i%3 == 0)...)
		}
		return out
	}
	for _, mk := range []func() L1Prefetcher{
		func() L1Prefetcher { return NewStride(8) },
		func() L1Prefetcher { return NewIPCP() },
		func() L1Prefetcher { return None{} },
	} {
		trained := mk()
		replay(trained)
		trained.Reset()
		got, want := replay(trained), replay(mk())
		if _, none := trained.(None); len(want) == 0 && !none {
			t.Fatalf("%s: the accesses train no prefetch", trained.Name())
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d prefetches after Reset, %d from a new one", trained.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: prefetch %d after Reset = %d, a new one gives %d", trained.Name(), i, got[i], want[i])
			}
		}
	}
}
