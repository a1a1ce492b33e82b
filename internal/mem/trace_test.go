package mem

import (
	"bytes"
	"io"
	"testing"
)

func testRecords() []Access {
	return []Access{
		{PC: 0x400100, Addr: 0x7f001040, Kind: Load, Dep: 0, Gap: 3},
		{PC: 0x400108, Addr: 0x7f001080, Kind: Load, Dep: 1, Gap: 0},
		{PC: 0x400110, Addr: 0x7f0010c0, Kind: Store, Dep: 0, Gap: 12},
		{PC: 0x400100, Addr: 0x7f001100, Kind: Load, Dep: 2, Gap: 65535},
	}
}

// readTrace reads an entire trace produced by WriteTrace, the way the
// ingest "file" format does: stream it through a TraceReader, collect the
// records, and report the reader's error.
func readTrace(r io.Reader) ([]Access, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	recs := Collect(tr, 0)
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// TestWriteReadTraceRoundTrip pins the in-memory writer/reader pair.
func TestWriteReadTraceRoundTrip(t *testing.T) {
	recs := testRecords()
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}
