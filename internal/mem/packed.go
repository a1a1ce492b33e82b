package mem

import (
	"encoding/binary"
	"slices"

	"prophet/internal/memo"
)

// Packed is a read-only trace held in a compact, lossless encoding: about
// 6 bytes per record on the catalog workloads, against 24 for an []Access.
// It is what the packed-trace memo (Traces) keeps, so a long-lived process
// pays for a costly trace's record stream once and as little as the stream
// needs.
//
// The encoding has a PC dictionary (each distinct PC once, in order of first
// appearance) and, per record:
//
//   - a header uvarint: the PC's dictionary index shifted left 2, or'ed with
//     the Kind when it is below kindEscape and with kindEscape otherwise, in
//     which case the full Kind byte follows;
//   - a zigzag varint of the address delta from the previous address of the
//     same PC (from 0 for its first record), wrapping modulo 2^64;
//   - uvarints of Dep and Gap.
//
// Loads and stores of a trace's first 32 PCs thus take a one-byte header.
// Records are stored in chunks of up to packChunkBytes, and no record spans
// two chunks, so the encoder never copies what it has written and the
// decoder checks for the end of a chunk only between records.
type Packed struct {
	pcs    []Addr
	chunks [][]byte
	n      int
	bytes  int
}

// Traces is the one memo of packed traces, for those that cost far more to
// rebuild than to replay: graph workloads and recorded trace files (a
// catalog generator rebuilds its trace at 30–40 ns a record, so it is never
// held). Keys carry everything that shapes a trace, such as a file's size
// and mtime, so an entry never goes stale. A sweep holds its keys in flight
// itself (pipeline.SweepFunc), so the bound only carries traces across
// sweeps and requests.
var Traces = memo.New[*Packed](4, 0, nil)

const (
	packChunkBytes = 64 << 10
	// kindEscape in a header's low 2 bits means a full Kind byte follows.
	kindEscape = 3
	// maxPackedRecord bounds one encoded record: the header and address
	// delta take up to 10 bytes each, the escaped Kind 1, Dep 5 and Gap 3.
	maxPackedRecord = 2*binary.MaxVarintLen64 + 1 + binary.MaxVarintLen32 + binary.MaxVarintLen16
)

// Pack encodes src's remaining records. A PackedSource that has delivered
// nothing yet is returned as its trace without re-encoding, so packing a
// fresh replay of a held trace shares its storage: WriteTrace exports a
// graph or trace-file workload from the memo's copy.
func Pack(src Source) *Packed {
	if s, ok := src.(*PackedSource); ok && s.left == s.p.n {
		return s.p
	}
	k := NewPacker()
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		k.Add(a)
	}
	return k.Finish()
}

// Packer builds a Packed trace one record at a time, so a producer that
// generates records (a graph algorithm's tracer) encodes them as it goes
// instead of first holding them as an []Access at 24 bytes a record.
type Packer struct {
	p     *Packed
	index map[Addr]uint64 // PC -> dictionary index
	last  []Addr          // previous address of each PC, by dictionary index
	chunk []byte
}

// NewPacker returns a packer holding no records.
func NewPacker() *Packer {
	return &Packer{p: &Packed{}, index: map[Addr]uint64{}, chunk: make([]byte, 0, packChunkBytes)}
}

// Add appends a record.
func (k *Packer) Add(a Access) {
	p, chunk := k.p, k.chunk
	if cap(chunk)-len(chunk) < maxPackedRecord {
		p.addChunk(chunk)
		chunk = make([]byte, 0, packChunkBytes)
	}
	i, seen := k.index[a.PC]
	if !seen {
		i = uint64(len(p.pcs))
		k.index[a.PC] = i
		p.pcs = append(p.pcs, a.PC)
		k.last = append(k.last, 0)
	}
	if a.Kind < kindEscape {
		chunk = binary.AppendUvarint(chunk, i<<2|uint64(a.Kind))
	} else {
		chunk = binary.AppendUvarint(chunk, i<<2|kindEscape)
		chunk = append(chunk, byte(a.Kind))
	}
	chunk = binary.AppendVarint(chunk, int64(a.Addr-k.last[i]))
	chunk = binary.AppendUvarint(chunk, uint64(a.Dep))
	chunk = binary.AppendUvarint(chunk, uint64(a.Gap))
	k.last[i] = a.Addr
	k.chunk = chunk
	p.n++
}

// Len returns the number of records added.
func (k *Packer) Len() int { return k.p.n }

// Finish returns the trace of every record added. The packer must not be
// used afterwards.
func (k *Packer) Finish() *Packed {
	p := k.p
	if len(k.chunk) > 0 {
		p.addChunk(slices.Clone(k.chunk)) // trim the last chunk's spare capacity
	}
	p.pcs = slices.Clone(p.pcs) // drop append's spare capacity
	*k = Packer{}
	return p
}

func (p *Packed) addChunk(c []byte) {
	p.chunks = append(p.chunks, c)
	p.bytes += len(c)
}

// Len returns the number of records.
func (p *Packed) Len() int { return p.n }

// Bytes returns the size of the encoding: the record chunks plus the PC
// dictionary.
func (p *Packed) Bytes() int { return p.bytes + 8*len(p.pcs) }

// Prefix returns the trace's first n records as a view that shares this
// trace's dictionary and chunks, so a shorter replay of a held trace costs
// no second encoding; its Bytes is the shared storage's. For n == 0 or
// n >= Len() it returns p itself. Pack hands a fresh replay of the view
// through like any other Packed.
func (p *Packed) Prefix(n uint64) *Packed {
	if n == 0 || n >= uint64(p.n) {
		return p
	}
	view := *p
	view.n = int(n)
	return &view
}

// Source returns a fresh replay of the trace. Sources over one Packed are
// independent and may run concurrently.
func (p *Packed) Source() *PackedSource {
	return &PackedSource{p: p, last: make([]Addr, len(p.pcs)), left: p.n}
}

// PackedSource replays a Packed trace. It is a Sized BlockSource whose
// NextBlock decodes straight into the caller's buffer.
type PackedSource struct {
	p     *Packed
	last  []Addr // previous address of each PC, by dictionary index
	chunk []byte // chunk being decoded
	pos   int    // offset of the next record in chunk
	next  int    // index of the chunk after chunk
	left  int    // records not yet delivered
}

// Len implements Sized.
func (s *PackedSource) Len() int { return s.left }

// Trace returns the trace s replays.
func (s *PackedSource) Trace() *Packed { return s.p }

// Next implements Source.
func (s *PackedSource) Next() (Access, bool) {
	var one [1]Access
	if len(s.NextBlock(one[:])) == 0 {
		return Access{}, false
	}
	return one[0], true
}

// NextBlock implements BlockSource, decoding up to len(buf) records into buf.
func (s *PackedSource) NextBlock(buf []Access) []Access {
	buf = buf[:min(len(buf), s.left)]
	s.left -= len(buf)
	b, pos, last, pcs := s.chunk, s.pos, s.last, s.p.pcs
	for i := range buf {
		if pos == len(b) {
			b, pos = s.p.chunks[s.next], 0
			s.next++
		}
		var head, delta, dep, gap uint64
		head, pos = uvarint(b, pos)
		kind := Kind(head & kindEscape)
		if kind == kindEscape {
			kind = Kind(b[pos])
			pos++
		}
		delta, pos = uvarint(b, pos)
		dep, pos = uvarint(b, pos)
		gap, pos = uvarint(b, pos)
		pc := head >> 2
		// Undo the zigzag: delta>>1 is the magnitude, the low bit the sign.
		addr := last[pc] + Addr(delta>>1^-(delta&1))
		last[pc] = addr
		buf[i] = Access{PC: pcs[pc], Addr: addr, Dep: uint32(dep), Gap: uint16(gap), Kind: kind}
	}
	s.chunk, s.pos = b, pos
	return buf
}

// uvarint decodes the uvarint the encoder wrote at b[pos:], returning it and
// the offset after it. One-byte values, most of a trace, take the inlined
// fast path.
func uvarint(b []byte, pos int) (uint64, int) {
	if c := b[pos]; c < 0x80 {
		return uint64(c), pos + 1
	}
	return uvarintLong(b, pos)
}

func uvarintLong(b []byte, pos int) (uint64, int) {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := b[pos]
		pos++
		if c < 0x80 {
			return v | uint64(c)<<shift, pos
		}
		v |= uint64(c&0x7f) << shift
	}
}
