package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"prophet/internal/mem"
)

func nativeFormat(t *testing.T) Format {
	t.Helper()
	f, ok := Lookup("file")
	if !ok {
		t.Fatal(`native format "file" not registered`)
	}
	return f
}

func testRecords() []mem.Access {
	return []mem.Access{
		{PC: 0x400100, Addr: 0x7f001040, Kind: mem.Load, Dep: 0, Gap: 3},
		{PC: 0x400108, Addr: 0x7f001080, Kind: mem.Load, Dep: 1, Gap: 0},
		{PC: 0x400110, Addr: 0x7f0010c0, Kind: mem.Store, Dep: 0, Gap: 12},
		{PC: 0x400100, Addr: 0x7f001100, Kind: mem.Load, Dep: 2, Gap: 65535},
	}
}

func sampleRecords(n int) []mem.Access {
	recs := make([]mem.Access, n)
	for i := range recs {
		recs[i] = mem.Access{
			PC:   mem.Addr(0x400000 + i*4),
			Addr: mem.Addr(uint64(i) * 64),
			Kind: mem.Kind(i % 2),
			Dep:  uint32(i % 7),
			Gap:  uint16(i % 30),
		}
	}
	return recs
}

func sameRecords(t *testing.T, what string, got, want []mem.Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s record %d: got %+v want %+v", what, i, got[i], want[i])
		}
	}
}

// TestTraceFileRoundTrip: plain and gzip-compressed native trace files
// round-trip identically through the "file" format, and gzip detection
// works from content even when the file is renamed without its .gz suffix.
func TestTraceFileRoundTrip(t *testing.T) {
	recs := testRecords()
	f := nativeFormat(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.trc")
	gz := filepath.Join(dir, "t.trc.gz")

	for _, path := range []string{plain, gz} {
		n, err := mem.WriteTraceFile(path, mem.NewSliceSource(recs))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if n != uint64(len(recs)) {
			t.Fatalf("%s: wrote %d records, want %d", path, n, len(recs))
		}
		packed, err := Read(f, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sameRecords(t, path, mem.Collect(packed.Source(), 0), recs)
	}

	// The compressed file must actually be gzip (magic bytes).
	raw, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf(".gz output is not gzip-framed: % x", raw[:2])
	}

	// Content sniffing: a gzip file without the suffix still loads.
	renamed := filepath.Join(dir, "renamed.trc")
	if err := os.Rename(gz, renamed); err != nil {
		t.Fatal(err)
	}
	got, err := Read(f, renamed)
	if err != nil {
		t.Fatalf("renamed gzip trace: %v", err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("renamed gzip trace: read %d records, want %d", got.Len(), len(recs))
	}
}

// TestReadTraceFileErrors: missing files and corrupt content fail cleanly,
// the corrupt one under ErrBadTrace.
func TestReadTraceFileErrors(t *testing.T) {
	f := nativeFormat(t)
	if _, err := Read(f, filepath.Join(t.TempDir(), "nope.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(f, bad); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("corrupt file: %v, want ErrBadTrace", err)
	}
}

// TestOpenTraceFileStreams round-trips plain and gzip native files through
// the streaming OpenFile and matches Read's packed result.
func TestOpenTraceFileStreams(t *testing.T) {
	recs := sampleRecords(5000)
	f := nativeFormat(t)
	for _, name := range []string{"t.trc", "t.trc.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if _, err := mem.WriteTraceFile(path, mem.NewSliceSource(recs)); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(f, path)
		if err != nil {
			t.Fatal(err)
		}
		got := mem.Collect(r, 0)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		packed, err := Read(f, path)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, name, got, mem.Collect(packed.Source(), 0))
		sameRecords(t, name, got, recs)
	}
}
