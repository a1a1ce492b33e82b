package prophet

import (
	"context"
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
// or csv: workload replays the packed-trace memo's trace unwrapped whenever
// the record budget covers the whole file, so mem.Pack of a factory's
// source returns the memoized trace itself rather than a second encoding,
// and so does every later resolution of the unchanged file. A shorter
// budget replays a prefix view of the same storage, which mem.Pack hands
// through without encoding anything.
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
				t.Fatalf("%s records=%d: the replay is a second copy of the file", tc.format, budget)
			}
		}

		// A re-encoding of the prefix would be smaller than the file's
		// encoding; a view of it has the file's dictionary and chunks,
		// so the same Bytes, and packing its replay allocates nothing.
		// The allocation bound is an average over many packs: the
		// runtime's deferred accounting can charge a single window a few
		// KiB the window never allocated.
		budget := tc.records - 1000
		factory, err := Workload{Name: name, Records: budget}.factory()
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]mem.Source, 100)
		for i := range srcs {
			srcs[i] = factory()
		}
		var p *mem.Packed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, src := range srcs {
			p = mem.Pack(src)
		}
		runtime.ReadMemStats(&after)
		if p.Len() != int(budget) || p.Bytes() != cached.Bytes() {
			t.Fatalf("%s records=%d: the replay packed to %d records in %d bytes, not a view of the file's %d bytes",
				tc.format, budget, p.Len(), p.Bytes(), cached.Bytes())
		}
		if grew := (after.TotalAlloc - before.TotalAlloc) / uint64(len(srcs)); grew > 1<<10 {
			t.Fatalf("%s records=%d: packing the replay allocated %d bytes a pack, a second copy of the file", tc.format, budget, grew)
		}
		want := mem.Collect(cached.Source(), int(budget))
		if got := mem.Collect(p.Source(), 0); !slices.Equal(got, want) {
			t.Fatalf("%s records=%d: replayed %d records, not the file's first %d", tc.format, budget, len(got), budget)
		}
	}
}

// TestCatalogSweepsHoldNoTraces: a catalog workload replays by running its
// generator again, so a 2-worker Sweep, a SweepStream and a single Run over
// catalog workloads add no entry to the packed-trace memo.
func TestCatalogSweepsHoldNoTraces(t *testing.T) {
	var ws []Workload
	for _, name := range []string{"sphinx3", "xalancbmk"} {
		w, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.WithRecords(5_000))
	}
	jobs := Jobs(ws, Baseline, Triage, Prophet)
	ctx := context.Background()
	before := mem.Traces.Stats()
	check := func(after string) {
		t.Helper()
		if st := mem.Traces.Stats(); st.Misses != before.Misses || st.Entries > before.Entries {
			t.Fatalf("after %s the packed-trace memo built %d traces and holds %d, want none added to %d",
				after, st.Misses-before.Misses, st.Entries, before.Entries)
		}
	}
	if _, err := New(WithWorkers(2)).Sweep(ctx, jobs...); err != nil {
		t.Fatal(err)
	}
	check("Sweep")
	if err := New(WithWorkers(2)).SweepStream(ctx, func(int, Result) {}, jobs...); err != nil {
		t.Fatal(err)
	}
	check("SweepStream")
	if _, err := New().Run(ctx, ws[0], Triangel); err != nil {
		t.Fatal(err)
	}
	check("Run")
}

// TestWarmSweepRecyclesEngines: once a process has run a sweep, a fresh
// Evaluator's 2-worker sweep of sweep-temporal's 5 x 4 jobs allocates
// almost nothing. Every per-run structure of the simulator and of the
// temporal engines (tables, compressors, samplers, training units, victim
// and hint buffers, generator storage) comes back from its pool; what is
// left is each job's bookkeeping, about 150 KB. Before the engines were
// recycled whole, such a sweep allocated 3 MB or more.
func TestWarmSweepRecyclesEngines(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	var ws []Workload
	for _, name := range []string{"mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"} {
		w, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	jobs := Jobs(ws, Baseline, Triage, Triangel, Prophet)
	sweep := func() []Result {
		res, err := New(WithWorkers(2)).Sweep(context.Background(), jobs...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := sweep()
	runtime.ReadMemStats(&after)
	for i := range warm {
		if warm[i].Err != nil || warm[i].Stats != cold[i].Stats {
			t.Fatalf("%s/%s: warm sweep read %+v (err %v), cold %+v", warm[i].Job.Workload.Name, warm[i].Job.Scheme, warm[i].Stats, warm[i].Err, cold[i].Stats)
		}
	}
	got, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if got >= 512<<10 {
		t.Fatalf("warm sweep allocated %d bytes in %d mallocs, want under 512 KiB", got, mallocs)
	}
	t.Logf("warm sweep allocated %d bytes in %d mallocs", got, mallocs)
}
