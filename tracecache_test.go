package prophet

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prophet/internal/mem"
	"prophet/internal/workloads"
)

// TestFileTraceSharesPackedStorage pins that a recorded trace is held once,
// whatever its format and record budget. The factory of a file:, champsim:
// or csv: workload replays the root cache's packed trace unwrapped whenever
// the record budget covers the whole file, so mem.Pack, which is how the
// sweep's trace store materializes a factory's source, returns the cached
// trace itself rather than a second encoding, and so does every later
// resolution of the unchanged file. A shorter budget replays a prefix view
// of the same storage, which mem.Pack hands through without encoding
// anything.
func TestFileTraceSharesPackedStorage(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloads.Get("sphinx3")
	native := filepath.Join(dir, "sphinx3.trc")
	if _, err := mem.WriteTraceFile(native, w.Source(20_000)); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	for _, a := range mem.Collect(w.Source(5_000), 0) {
		fmt.Fprintf(&csv, "%d,%d,%d,%d,%d\n", a.PC, a.Addr, a.Kind, a.Dep, a.Gap)
	}
	csvPath := filepath.Join(dir, "sphinx3.csv")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format, path string
		records      uint64
	}{
		{"file", native, 20_000},
		{"champsim", "testdata/sample.champsim.gz", 6_336},
		{"csv", csvPath, 5_000},
	} {
		name := tc.format + ":" + tc.path
		var cached *mem.Packed
		for _, budget := range []uint64{0, tc.records, 2 * tc.records} {
			// Each resolution goes through the root cache again.
			factory, err := Workload{Name: name, Records: budget}.factory()
			if err != nil {
				t.Fatal(err)
			}
			p := mem.Pack(factory())
			if cached == nil {
				cached = p
				if uint64(p.Len()) != tc.records {
					t.Fatalf("%s: %d records, want %d", tc.format, p.Len(), tc.records)
				}
			}
			if p != cached {
				t.Fatalf("%s records=%d: the trace store would hold a second copy of the file", tc.format, budget)
			}
		}

		budget := tc.records - 1000
		factory, err := Workload{Name: name, Records: budget}.factory()
		if err != nil {
			t.Fatal(err)
		}
		src := factory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := mem.Pack(src)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
			t.Fatalf("%s records=%d: packing the replay allocated %d bytes, a second copy of the file", tc.format, budget, grew)
		}
		want := mem.Collect(cached.Source(), int(budget))
		if got := mem.Collect(p.Source(), 0); !slices.Equal(got, want) {
			t.Fatalf("%s records=%d: replayed %d records, not the file's first %d", tc.format, budget, len(got), budget)
		}
	}
}
