package mem

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Trace file format (little-endian):
//
//	magic   [8]byte  "PROPHTRC"
//	version uint32   (currently 1)
//	count   uint64   number of records
//	records count × { pc uint64, addr uint64, kind uint8, dep uint32, gap uint16 }
//
// The format is intentionally simple: it exists so cmd/tracegen can export
// workloads for inspection and so traces can be replayed byte-identically.

var traceMagic = [8]byte{'P', 'R', 'O', 'P', 'H', 'T', 'R', 'C'}

const traceVersion = 1

// ErrBadTrace reports a malformed trace: a corrupt header or record, a
// truncated file, an unparsable field. It is the one sentinel for every
// trace format, native or ingested (ingest.ErrBadTrace is this value).
var ErrBadTrace = errors.New("malformed trace")

// WriteTrace writes all records from src to w in the trace file format,
// returning the number of records written. The header needs the count
// first, so src is held packed (about 6 bytes a record) until it is
// written; a fresh PackedSource is written from its own storage.
func WriteTrace(w io.Writer, src Source) (uint64, error) {
	p := Pack(src)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(traceVersion)); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(p.Len())); err != nil {
		return 0, err
	}
	var buf [recordBytes]byte
	block := make([]Access, traceBlockRecords)
	rs := p.Source()
	for recs := rs.NextBlock(block); len(recs) > 0; recs = rs.NextBlock(block) {
		for _, r := range recs {
			binary.LittleEndian.PutUint64(buf[0:], uint64(r.PC))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.Addr))
			buf[16] = byte(r.Kind)
			binary.LittleEndian.PutUint32(buf[17:], r.Dep)
			binary.LittleEndian.PutUint16(buf[21:], r.Gap)
			if _, err := bw.Write(buf[:]); err != nil {
				return 0, err
			}
		}
	}
	return uint64(p.Len()), bw.Flush()
}

// WriteTraceFile writes all records from src to the named file,
// gzip-compressing when the path ends in ".gz". It returns the number of
// records written; the ingest package's "file" format reads either form back
// byte-identically.
func WriteTraceFile(path string, src Source) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	n, err := WriteTrace(w, src)
	if zw != nil {
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// recordBytes is the on-disk size of one trace record.
const recordBytes = 23

// traceBlockRecords is how many records a TraceReader decodes per refill of
// its reusable block buffer.
const traceBlockRecords = 4096

// TraceReader streams a trace without materializing the full record slice:
// it refills one reusable block buffer from the underlying reader and
// decodes records on demand. It implements Source, so a trace file can be
// replayed directly into the simulator with O(block) memory whatever the
// trace length. Callers that need random access or multiple passes should
// Pack it instead.
type TraceReader struct {
	r         io.Reader
	count     uint64 // total records in the trace
	delivered uint64
	block     []byte // reusable block buffer (whole records only)
	pos       int    // consumed bytes within block
	err       error
}

// NewTraceReader parses the header from r and returns a streaming reader
// positioned at the first record. A header count past maxTraceRecords is
// refused here, so no reader of a native trace decodes a forged count
// toward an out-of-memory.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	var head [12]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	version := binary.LittleEndian.Uint32(head[0:])
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, version)
	}
	count := binary.LittleEndian.Uint64(head[4:])
	if count > maxTraceRecords {
		return nil, fmt.Errorf("%w: record count %d too large", ErrBadTrace, count)
	}
	return &TraceReader{
		r:     br,
		count: count,
		block: make([]byte, 0, traceBlockRecords*recordBytes),
	}, nil
}

// Err returns the error that terminated the stream early, if any. A stream
// that delivered every record its header declares reports nil.
func (t *TraceReader) Err() error { return t.err }

// Next implements Source, decoding the next record from the block buffer.
func (t *TraceReader) Next() (Access, bool) {
	if t.err != nil || t.delivered >= t.count {
		return Access{}, false
	}
	if t.pos >= len(t.block) {
		if !t.refill() {
			return Access{}, false
		}
	}
	b := t.block[t.pos : t.pos+recordBytes]
	t.pos += recordBytes
	t.delivered++
	return Access{
		PC:   Addr(binary.LittleEndian.Uint64(b[0:])),
		Addr: Addr(binary.LittleEndian.Uint64(b[8:])),
		Kind: Kind(b[16]),
		Dep:  binary.LittleEndian.Uint32(b[17:]),
		Gap:  binary.LittleEndian.Uint16(b[21:]),
	}, true
}

// refill reads the next block of whole records into the reusable buffer.
func (t *TraceReader) refill() bool {
	want := t.count - t.delivered
	if want > traceBlockRecords {
		want = traceBlockRecords
	}
	buf := t.block[:want*recordBytes]
	if _, err := io.ReadFull(t.r, buf); err != nil {
		t.err = fmt.Errorf("%w: truncated at record %d: %v", ErrBadTrace, t.delivered, err)
		return false
	}
	t.block = buf
	t.pos = 0
	return true
}

// maxTracePrealloc caps the records a TraceReader reports through Len, and
// so the capacity Collect preallocates from a header count nothing has
// checked yet. A forged header then costs at most this many records
// (2 MiB) up front; an honest larger trace grows past it by append.
const maxTracePrealloc = 1 << 16

// maxTraceRecords is the largest header count NewTraceReader accepts;
// larger files are refused outright rather than decoded toward an
// out-of-memory.
const maxTraceRecords = 1 << 28

// Len implements Sized: the records the header says are left, clamped to
// maxTracePrealloc because the header is untrusted input.
func (t *TraceReader) Len() int {
	return int(min(t.count-t.delivered, maxTracePrealloc))
}
