// Package mem defines the fundamental address and trace types shared by the
// whole simulator: byte addresses, 64-byte cache-line addresses, memory-access
// records, and streaming trace sources.
//
// A trace is a sequence of Access records. Each record describes one memory
// instruction (its PC, effective address and kind) plus two pieces of
// micro-architectural context that a flat address stream cannot carry:
//
//   - Gap: the number of non-memory instructions fetched immediately before
//     this access. The core model charges fetch/commit bandwidth for them.
//   - Dep: the distance, in memory records, to the producer of this access's
//     address (0 = no dependence). Pointer-chasing loads carry Dep=1 and
//     therefore serialize behind the previous miss; index-array loads carry
//     Dep=0 and overlap freely. This is what gives the simulator realistic
//     memory-level parallelism without simulating register dataflow.
package mem

import "fmt"

// LineShift is log2 of the cache-line size. All caches in the simulated
// system use 64-byte lines (Table 1 of the paper).
const LineShift = 6

// LineBytes is the cache-line size in bytes.
const LineBytes = 1 << LineShift

// MaxLine is the highest line a 64-bit address has. A computed prefetch
// target above it lies beyond the address space (Line.Addr would overflow),
// and the caches' tag words hold line+1 only for lines up to it.
const MaxLine Line = 1<<(64-LineShift) - 1

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line is a cache-line address (a byte address with the low 6 bits dropped).
type Line uint64

// LineOf returns the cache line containing byte address a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Addr returns the byte address of the first byte of the line.
func (l Line) Addr() Addr { return Addr(l) << LineShift }

// String formats the line address as hex for debugging.
func (l Line) String() string { return fmt.Sprintf("line:%#x", uint64(l)) }

// Kind discriminates memory-access types in a trace.
type Kind uint8

const (
	// Load is a demand read access.
	Load Kind = iota
	// Store is a demand write access.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Access is one memory-instruction record in a trace.
type Access struct {
	// PC is the address of the memory instruction.
	PC Addr
	// Addr is the effective (data) address accessed.
	Addr Addr
	// Dep is the distance, in memory records, to the record producing this
	// access's address. 0 means the address does not depend on a recent
	// load (it can issue as soon as it is fetched); 1 means it depends on
	// the immediately preceding record, as in pointer chasing.
	Dep uint32
	// Gap is the number of non-memory instructions that precede this
	// access in program order. They consume fetch/commit bandwidth but
	// never access the memory hierarchy.
	Gap uint16
	// Kind says whether the access reads or writes. It sits last so the
	// record packs into 24 bytes: ahead of Dep, alignment would pad it to
	// 32.
	Kind Kind
}

// Line returns the cache line touched by the access.
func (a Access) Line() Line { return LineOf(a.Addr) }

// Instructions returns the number of dynamic instructions the record
// represents: the access itself plus its non-memory gap.
func (a Access) Instructions() uint64 { return 1 + uint64(a.Gap) }

// Source is a pull-based stream of accesses. Next returns the next record and
// true, or a zero Access and false when the stream is exhausted. Sources are
// single-use; generators return fresh Sources on demand.
type Source interface {
	Next() (Access, bool)
}

// SliceSource adapts an in-memory slice to the Source interface.
type SliceSource struct {
	recs []Access
	pos  int
}

// NewSliceSource returns a Source that replays recs in order.
func NewSliceSource(recs []Access) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Access, bool) {
	if s.pos >= len(s.recs) {
		return Access{}, false
	}
	a := s.recs[s.pos]
	s.pos++
	return a, true
}

// Sized is an optional extension of Source for sources that know how many
// records they have left. Len is a capacity hint: Collect and Materialize
// size their slice from it, so a generated trace is allocated once instead
// of regrown by append. Sources that cannot know their length (streamed
// external formats, closures) do not implement it and keep append growth;
// decoders whose count comes from untrusted input clamp it.
type Sized interface {
	Source
	Len() int
}

// Len implements Sized.
func (s *SliceSource) Len() int { return len(s.recs) - s.pos }

// Materialize returns the source's full record sequence as a slice. A fresh
// SliceSource is returned as its backing slice without copying; callers
// treat the result as read-only. Traces kept across passes are held packed
// instead (Pack), at about a quarter of the size.
func Materialize(src Source) []Access {
	if s, ok := src.(*SliceSource); ok && s.pos == 0 {
		return s.recs
	}
	return Collect(src, 0)
}

// Collect drains a source into a slice, stopping after max records
// (max <= 0 means unbounded). It is the materialization path behind
// Materialize; the packed-trace memo (Traces) and the trace-file writer
// hold Packed traces instead. A Sized source is collected into one
// allocation of its Len.
func Collect(src Source, max int) []Access {
	var out []Access
	if s, ok := src.(Sized); ok {
		n := s.Len()
		if max > 0 && n > max {
			n = max
		}
		out = make([]Access, 0, n)
	}
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// Limit wraps a source so that it yields at most n records. The wrapper is
// Sized exactly when src is.
func Limit(src Source, n uint64) Source {
	l := limited{src: src, left: n}
	if _, ok := src.(Sized); ok {
		return &sizedLimited{l}
	}
	return &l
}

type limited struct {
	src  Source
	left uint64
}

func (l *limited) Next() (Access, bool) {
	if l.left == 0 {
		return Access{}, false
	}
	l.left--
	return l.src.Next()
}

// sizedLimited is a limited over a Sized source.
type sizedLimited struct{ limited }

// Len implements Sized: the smaller of the budget and the inner source's
// remaining length.
func (l *sizedLimited) Len() int {
	if n := l.src.(Sized).Len(); uint64(n) < l.left {
		return n
	}
	return int(l.left)
}

// FuncSource adapts a closure to the Source interface.
type FuncSource func() (Access, bool)

// Next implements Source.
func (f FuncSource) Next() (Access, bool) { return f() }
