package prophet

import (
	"path/filepath"
	"testing"

	"prophet/internal/mem"
	"prophet/internal/workloads"
)

// TestFileTraceSharesPackedStorage pins that a file: trace is held once. The
// factory of a file: workload replays the root cache's packed trace
// unwrapped whenever the record budget covers the whole file, so mem.Pack,
// which is how the sweep's trace store materializes a factory's source,
// returns the cached trace itself rather than a second encoding.
func TestFileTraceSharesPackedStorage(t *testing.T) {
	const records = 20_000
	path := filepath.Join(t.TempDir(), "sphinx3.trc")
	w, _ := workloads.Get("sphinx3")
	if _, err := mem.WriteTraceFile(path, w.Source(records)); err != nil {
		t.Fatal(err)
	}
	cached, err := readTraceCached(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{0, records, 2 * records} {
		wl := Workload{Name: "file:" + path, Records: budget}
		f, err := wl.factory()
		if err != nil {
			t.Fatal(err)
		}
		if mem.Pack(f()) != cached {
			t.Fatalf("records=%d: the trace store would hold a second copy of the file", budget)
		}
	}
	if again, _ := readTraceCached(path); again != cached {
		t.Fatal("the root trace cache re-read an unchanged file")
	}
}
