// Package prefetch implements the L1 data prefetchers of the evaluation: the
// degree-8 stride prefetcher of Table 1 and an IPCP-style composite
// prefetcher (Pakalapati & Panda, ISCA'20) used by the Figure 17 sensitivity
// study. Both train on the L1 demand stream and fill into the L1; their
// requests also flow down the hierarchy and thus into the temporal
// prefetcher's L2 training stream, exactly as in the paper's setup
// ("Prophet and Triangel are trained on the L2 cache access stream,
// including prefetch requests generated by L1 stride prefetchers").
package prefetch

import "prophet/internal/mem"

// L1Prefetcher observes L1 demand accesses and proposes prefetch lines.
type L1Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnAccess observes a demand access and returns the lines to prefetch.
	// The returned slice may alias a scratch buffer owned by the
	// prefetcher: it is valid only until the next OnAccess call.
	OnAccess(pc mem.Addr, line mem.Line, hit bool) []mem.Line
	// Reset forgets everything trained, as a new prefetcher starts.
	Reset()
}

// None is a disabled prefetcher.
type None struct{}

// Name implements L1Prefetcher.
func (None) Name() string { return "none" }

// OnAccess implements L1Prefetcher.
func (None) OnAccess(mem.Addr, mem.Line, bool) []mem.Line { return nil }

// Reset implements L1Prefetcher.
func (None) Reset() {}

const tableSize = 256 // entries in the PC-indexed training tables

func pcIndex(pc mem.Addr) int {
	x := uint64(pc) >> 2
	x ^= x >> 8
	return int(x % tableSize)
}

// --- Stride prefetcher (Table 1: "degree-8 stride prefetcher for L1D") ---

type strideEntry struct {
	pc     mem.Addr
	last   mem.Line
	stride int64
	conf   int8
}

// Stride is a classic PC-indexed stride prefetcher.
type Stride struct {
	degree  int
	entries [tableSize]strideEntry
	scratch []mem.Line // reused across OnAccess calls
}

// NewStride returns a stride prefetcher with the given degree.
func NewStride(degree int) *Stride {
	if degree <= 0 {
		degree = 1
	}
	return &Stride{degree: degree, scratch: make([]mem.Line, 0, degree)}
}

// Name implements L1Prefetcher.
func (s *Stride) Name() string { return "stride" }

// Reset implements L1Prefetcher: it clears the stride table in place.
func (s *Stride) Reset() { s.entries = [tableSize]strideEntry{} }

// OnAccess implements L1Prefetcher.
func (s *Stride) OnAccess(pc mem.Addr, line mem.Line, _ bool) []mem.Line {
	e := &s.entries[pcIndex(pc)]
	if e.pc != pc {
		*e = strideEntry{pc: pc, last: line}
		return nil
	}
	delta := int64(line) - int64(e.last)
	e.last = line
	if delta == 0 {
		return nil
	}
	if delta == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride = delta
			e.conf = 1
		}
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	out := s.scratch[:0]
	next := int64(line)
	for i := 0; i < s.degree; i++ {
		next += e.stride
		if next < 0 || next > int64(mem.MaxLine) {
			break
		}
		out = append(out, mem.Line(next))
	}
	s.scratch = out
	return out
}

// --- IPCP-style composite prefetcher (Figure 17) ---

// ipcpClass is the per-IP classification of IPCP.
type ipcpClass uint8

const (
	classNone ipcpClass = iota
	classCS             // constant stride
	classGS             // global stream
	classNL             // next line fallback
)

type ipcpEntry struct {
	pc      mem.Addr
	last    mem.Line
	stride  int64
	conf    int8
	class   ipcpClass
	misses  int8 // recent miss run length, drives NL classification
	sigHits uint8
}

// IPCP approximates the "bouquet" prefetcher: per-IP constant-stride
// detection with higher degree, a global-stream detector for dense region
// sweeps, and a next-line class for miss-heavy IPs. It is stronger than the
// plain stride prefetcher on mixed regular/irregular code, which is why
// Figure 17 uses it to mimic a Neoverse-V2-like L1 configuration.
type IPCP struct {
	entries [tableSize]ipcpEntry
	// global stream state
	lastLine  mem.Line
	streamDir int64
	streamLen int
	scratch   []mem.Line // reused across OnAccess calls
}

// NewIPCP returns an IPCP-style prefetcher.
func NewIPCP() *IPCP { return &IPCP{scratch: make([]mem.Line, 0, 8)} }

// Name implements L1Prefetcher.
func (p *IPCP) Name() string { return "ipcp" }

// Reset implements L1Prefetcher: it clears the tables in place.
func (p *IPCP) Reset() {
	p.entries = [tableSize]ipcpEntry{}
	p.lastLine, p.streamDir, p.streamLen = 0, 0, 0
}

// OnAccess implements L1Prefetcher.
func (p *IPCP) OnAccess(pc mem.Addr, line mem.Line, hit bool) []mem.Line {
	// Global stream detection (region sweeps from any IP mixture).
	gdelta := int64(line) - int64(p.lastLine)
	if gdelta == p.streamDir && (gdelta == 1 || gdelta == -1) {
		p.streamLen++
	} else if gdelta == 1 || gdelta == -1 {
		p.streamDir = gdelta
		p.streamLen = 1
	} else {
		p.streamLen = 0
	}
	p.lastLine = line

	e := &p.entries[pcIndex(pc)]
	if e.pc != pc {
		*e = ipcpEntry{pc: pc, last: line}
		return nil
	}
	delta := int64(line) - int64(e.last)
	e.last = line
	if !hit {
		if e.misses < 15 {
			e.misses++
		}
	} else if e.misses > 1 {
		e.misses -= 2
	}
	if delta != 0 {
		if delta == e.stride {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.conf--
			if e.conf <= 0 {
				e.stride = delta
				e.conf = 1
			}
		}
	}
	// Classification priority: CS > GS > NL (as in IPCP's bouquet).
	switch {
	case e.conf >= 2 && e.stride != 0:
		e.class = classCS
	case p.streamLen >= 4:
		e.class = classGS
	case e.misses >= 14 && delta == 1:
		// Next-line only for PCs whose misses actually march forward;
		// irregular miss-heavy PCs get nothing (prefetching them only
		// wastes bandwidth).
		e.class = classNL
	default:
		e.class = classNone
	}

	switch e.class {
	case classCS:
		const degree = 6
		out := p.scratch[:0]
		next := int64(line)
		for i := 0; i < degree; i++ {
			next += e.stride
			if next < 0 || next > int64(mem.MaxLine) {
				break
			}
			out = append(out, mem.Line(next))
		}
		p.scratch = out
		return out
	case classGS:
		const degree = 8
		out := p.scratch[:0]
		next := int64(line)
		for i := 0; i < degree; i++ {
			next += p.streamDir
			if next < 0 || next > int64(mem.MaxLine) {
				break
			}
			out = append(out, mem.Line(next))
		}
		p.scratch = out
		return out
	case classNL:
		if line == mem.MaxLine {
			return nil
		}
		out := append(p.scratch[:0], line+1)
		p.scratch = out
		return out
	}
	return nil
}
