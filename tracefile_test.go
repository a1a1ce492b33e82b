// Tests for the file:<path> workload source: exported traces (plain and
// gzip) round-trip through the full evaluation path with results identical
// to the generated workload they came from.
package prophet_test

import (
	"context"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"prophet"

	"prophet/internal/mem"
)

func exportTrace(t *testing.T, name string, records uint64, path string) {
	t.Helper()
	w, err := prophet.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.WithRecords(records).Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.WriteTraceFile(path, src); err != nil {
		t.Fatal(err)
	}
}

// TestFileWorkloadMatchesGenerated: evaluating file:<exported trace> equals
// evaluating the workload it was exported from, for both plain and gzip
// files.
func TestFileWorkloadMatchesGenerated(t *testing.T) {
	const records = 20_000
	dir := t.TempDir()
	plain := filepath.Join(dir, "sphinx3.trc")
	gz := filepath.Join(dir, "sphinx3.trc.gz")
	exportTrace(t, "sphinx3", records, plain)
	exportTrace(t, "sphinx3", records, gz)

	ctx := context.Background()
	orig, err := prophet.Find("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := prophet.New(prophet.WithWorkers(1)).Run(ctx, orig.WithRecords(records), prophet.Triangel)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, gz} {
		fw, err := prophet.Find("file:" + path)
		if err != nil {
			t.Fatalf("Find(file:%s): %v", path, err)
		}
		got, err := prophet.New(prophet.WithWorkers(1)).Run(ctx, fw, prophet.Triangel)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("file:%s diverged from generated workload:\n file      %+v\n generated %+v", path, got, want)
		}
	}
}

// TestFileWorkloadErrors: missing and corrupt trace files surface as Find /
// Run errors, never panics.
func TestFileWorkloadErrors(t *testing.T) {
	if _, err := prophet.Find("file:" + filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing trace file accepted by Find")
	}
	ev := prophet.New()
	w := prophet.Workload{Name: "file:/definitely/not/a/real/path.trc"}
	if _, err := ev.Run(context.Background(), w, prophet.Baseline); err == nil {
		t.Fatal("missing trace file accepted by Run")
	}
}

// TestFileWorkloadRegeneratedFile: overwriting a trace file under the same
// path is a different trace — a long-lived evaluator must not serve the old
// baseline (or the old records) for it.
func TestFileWorkloadRegeneratedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trc")
	exportTrace(t, "sphinx3", 20_000, path)

	ev := prophet.New(prophet.WithWorkers(1))
	ctx := context.Background()
	w := prophet.Workload{Name: "file:" + path}
	first, err := ev.Run(ctx, w, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 1 {
		t.Fatalf("misses=%d, want 1", misses)
	}

	// Regenerate the file with different content (different length ⇒
	// different size, so the identity changes even on coarse mtimes).
	exportTrace(t, "omnetpp", 15_000, path)
	second, err := ev.Run(ctx, w, prophet.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := ev.BaselineCacheStats(); misses != 2 {
		t.Fatalf("regenerated file reused the stale baseline entry: misses=%d, want 2", misses)
	}
	if first == second {
		t.Fatal("regenerated file returned identical stats to the old trace")
	}
}

// TestFileWorkloadWithRecords: a records override truncates the replayed
// trace, giving a distinct baseline-cache entry.
func TestFileWorkloadWithRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trc")
	exportTrace(t, "sphinx3", 20_000, path)
	fw, err := prophet.Find("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := fw.WithRecords(5_000).Open()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mem.Collect(src, 0)); n != 5_000 {
		t.Fatalf("records override replayed %d records, want 5000", n)
	}
}

// TestWriteTraceHoldsPacked: the trace-file writer needs the record count
// before the records, so it holds the whole trace until it writes; it holds
// it packed, so exporting 400,000 mcf records from a stream of unknown
// length (an ingest reader, say) allocates a few MB, not the 24-byte
// records and their append growth.
func TestWriteTraceHoldsPacked(t *testing.T) {
	const records = 400_000
	w, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.WithRecords(records).Open()
	if err != nil {
		t.Fatal(err)
	}
	unsized := mem.FuncSource(src.Next)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := mem.WriteTrace(io.Discard, unsized)
	runtime.ReadMemStats(&after)
	if err != nil || n != records {
		t.Fatalf("WriteTrace = %d, %v; want %d records", n, err, records)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("WriteTrace of %d records allocated %.1f MB, want under 8 MiB", records, float64(grew)/1e6)
	}
}
