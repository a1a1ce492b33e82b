package mem

import (
	"bytes"
	"testing"
)

// traceBytes serializes recs through WriteTrace for reader tests.
func traceBytes(t *testing.T, recs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleRecords(n int) []Access {
	recs := make([]Access, n)
	for i := range recs {
		recs[i] = Access{
			PC:   Addr(0x400000 + i*4),
			Addr: Addr(uint64(i) * 64),
			Kind: Kind(i % 2),
			Dep:  uint32(i % 7),
			Gap:  uint16(i % 30),
		}
	}
	return recs
}

// TestTraceReaderStreams checks the streaming reader yields exactly the
// written records across block boundaries (sizes straddling the block size).
func TestTraceReaderStreams(t *testing.T) {
	for _, n := range []int{0, 1, traceBlockRecords - 1, traceBlockRecords, traceBlockRecords + 1, 3*traceBlockRecords + 17} {
		recs := sampleRecords(n)
		tr, err := NewTraceReader(bytes.NewReader(traceBytes(t, recs)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.count != uint64(n) {
			t.Fatalf("n=%d: Count = %d", n, tr.count)
		}
		for i := 0; ; i++ {
			a, ok := tr.Next()
			if !ok {
				if i != n {
					t.Fatalf("n=%d: stream ended after %d records", n, i)
				}
				break
			}
			if i >= n || a != recs[i] {
				t.Fatalf("n=%d: record %d = %+v", n, i, a)
			}
		}
		if tr.Err() != nil {
			t.Fatalf("n=%d: Err = %v", n, tr.Err())
		}
		// Exhausted streams keep returning false.
		if _, ok := tr.Next(); ok {
			t.Fatalf("n=%d: Next after EOF succeeded", n)
		}
	}
}

// TestTraceReaderTruncation: a trace cut mid-stream surfaces ErrBadTrace
// through Err, not a silent short stream.
func TestTraceReaderTruncation(t *testing.T) {
	data := traceBytes(t, sampleRecords(100))
	tr, err := NewTraceReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if tr.Err() == nil {
		t.Fatalf("truncated stream reported no error after %d records", n)
	}
}

var _ Source = (*TraceReader)(nil)
