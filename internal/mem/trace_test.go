package mem

import (
	"bytes"
	"os"
	"path/filepath"
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
	got, err := ReadTrace(&buf)
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

// TestTraceFileRoundTrip: plain and gzip-compressed trace files round-trip
// identically, and gzip detection works from content even when the file is
// renamed without its .gz suffix.
func TestTraceFileRoundTrip(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.trc")
	gz := filepath.Join(dir, "t.trc.gz")

	for _, path := range []string{plain, gz} {
		n, err := WriteTraceFile(path, NewSliceSource(recs))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if n != uint64(len(recs)) {
			t.Fatalf("%s: wrote %d records, want %d", path, n, len(recs))
		}
		packed, err := ReadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got := Collect(packed.Source(), 0)
		if len(got) != len(recs) {
			t.Fatalf("%s: read %d records, want %d", path, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Errorf("%s record %d: got %+v want %+v", path, i, got[i], recs[i])
			}
		}
	}

	// The compressed file must actually be gzip (magic bytes), and smaller
	// framing than raw for real traces is gzip's business, not ours.
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
	got, err := ReadTraceFile(renamed)
	if err != nil {
		t.Fatalf("renamed gzip trace: %v", err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("renamed gzip trace: read %d records, want %d", got.Len(), len(recs))
	}
}

// TestReadTraceFileErrors: missing files and corrupt content fail cleanly.
func TestReadTraceFileErrors(t *testing.T) {
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "nope.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(bad); err == nil {
		t.Fatal("corrupt file accepted")
	}
}
