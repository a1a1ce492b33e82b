// Tests for the external-trace workload sources (champsim:<path>,
// csv:<path>): ingestion is deterministic across repeats and worker counts,
// conversion round-trips through the native format, resolution errors
// surface cleanly, and external-path results never reach a durable store.
package prophet_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"prophet"

	"prophet/internal/ingest"
	"prophet/internal/mem"
)

const champsimFixture = "champsim:testdata/sample.champsim.gz"

// TestExternalWorkloadDeterminism: ingesting the same external trace twice
// yields byte-identical RunStats, on one worker or eight, fresh evaluator or
// reused.
func TestExternalWorkloadDeterminism(t *testing.T) {
	ctx := context.Background()
	w, err := prophet.Find(champsimFixture)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []prophet.Scheme{prophet.Baseline, prophet.Triangel, prophet.Prophet}
	jobs := prophet.Jobs([]prophet.Workload{w}, schemes...)

	var want []prophet.Result
	for _, workers := range []int{1, 1, 8} {
		got, err := prophet.New(prophet.WithWorkers(workers)).Sweep(ctx, jobs...)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("%s under %s: %v", w.Name, schemes[i], r.Err)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i].Stats != want[i].Stats {
				t.Errorf("workers=%d scheme=%s diverged:\n got  %+v\n want %+v",
					workers, schemes[i], got[i].Stats, want[i].Stats)
			}
		}
	}
}

// TestExternalWorkloadWideLines pins triage, triangel and prophet on the
// ChampSim fixture to RunStats fixtures. The fixture's lines pass 32 bits,
// which no catalog workload's do, so these runs are the end-to-end check of
// the address compressor's wide-line storage. (Prophet's analysis disables
// temporal prefetching on a footprint this small, so its fixture pins that
// decision rather than table traffic.)
func TestExternalWorkloadWideLines(t *testing.T) {
	w, err := prophet.Find(champsimFixture)
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.Open()
	if err != nil {
		t.Fatal(err)
	}
	var top mem.Line
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		top = max(top, mem.LineOf(a.Addr))
	}
	if top < 1<<32 {
		t.Fatalf("highest fixture line %#x fits 32 bits; the wide path goes untested", top)
	}
	ev := prophet.New(prophet.WithWorkers(1))
	for _, scheme := range []prophet.Scheme{prophet.Triage, prophet.Triangel, prophet.Prophet} {
		t.Run(string(scheme), func(t *testing.T) {
			st, err := ev.Run(context.Background(), w, scheme)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath("champsim_sample", scheme), st)
		})
	}
}

// TestExternalWorkloadWideLinesActive pins an active run on lines past 32
// bits: 100,000 mcf records shifted up by 2^38 bytes (2^32 lines), written as
// a native trace and run as file:. Every scheme must prefetch usefully. Every
// cache and table set index, and the compressor's first-touch indices,
// ignore the high bits, so triage's and prophet's RunStats must equal the
// unshifted run's; triangel's sampler hashes the whole line, so only its
// activity is pinned.
func TestExternalWorkloadWideLinesActive(t *testing.T) {
	const records, shift = 100_000, mem.Addr(1) << 38
	ctx := context.Background()
	narrow, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	narrow = narrow.WithRecords(records)
	src, err := narrow.Open()
	if err != nil {
		t.Fatal(err)
	}
	recs := mem.Collect(src, 0)
	for i := range recs {
		recs[i].Addr += shift
	}
	path := filepath.Join(t.TempDir(), "mcf-wide.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.WriteTrace(f, mem.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wide, err := prophet.Find("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	ev := prophet.New(prophet.WithWorkers(1))
	for _, scheme := range []prophet.Scheme{prophet.Triage, prophet.Triangel, prophet.Prophet} {
		t.Run(string(scheme), func(t *testing.T) {
			got, err := ev.Run(ctx, wide, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if got.Raw.TPUseful == 0 {
				t.Fatalf("no useful prefetch on the shifted trace: %+v", got.Raw)
			}
			if scheme == prophet.Triangel {
				return
			}
			want, err := ev.Run(ctx, narrow, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("shifted run diverged from the unshifted one:\n shifted %+v\n narrow  %+v", got, want)
			}
		})
	}
}

// TestExternalWorkloadConversionMatchesDirect: tracegen-style conversion to
// the native format and replay via file: produces the same RunStats as
// evaluating the champsim: source directly — the two paths decode the same
// access stream.
func TestExternalWorkloadConversionMatchesDirect(t *testing.T) {
	ctx := context.Background()
	direct, err := prophet.Find(champsimFixture)
	if err != nil {
		t.Fatal(err)
	}
	src, err := direct.Open()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "converted.trc.gz")
	if _, err := mem.WriteTraceFile(path, src); err != nil {
		t.Fatal(err)
	}
	converted, err := prophet.Find("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	ev := prophet.New(prophet.WithWorkers(1))
	want, err := ev.Run(ctx, direct, prophet.Triangel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Run(ctx, converted, prophet.Triangel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("converted replay diverged from direct ingestion:\n file     %+v\n champsim %+v", got, want)
	}
}

// TestExternalWorkloadErrors: missing files, unknown prefixes, and corrupt
// traces fail at Find with classified errors — never a short silent stream.
func TestExternalWorkloadErrors(t *testing.T) {
	if _, err := prophet.Find("champsim:" + filepath.Join(t.TempDir(), "missing.champsim")); err == nil {
		t.Fatal("missing champsim trace accepted by Find")
	}
	if _, err := prophet.Find("avro:whatever"); err == nil {
		t.Fatal("unregistered format prefix accepted by Find")
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.champsim")
	if err := os.WriteFile(corrupt, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := prophet.Find("champsim:" + corrupt)
	if err == nil {
		t.Fatal("truncated champsim trace accepted by Find")
	}
	if !errors.Is(err, ingest.ErrBadTrace) {
		t.Fatalf("corrupt trace error %v not classified under ingest.ErrBadTrace", err)
	}
}

// memStore is a minimal concurrent ResultStore for observing writes.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

func (s *memStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string][]byte{}
	}
	s.m[key] = val
	return nil
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// TestExternalWorkloadNeverStored: external-path workloads must not write
// through to (or be served from) a durable result store — the file behind
// the name can change without the key noticing.
func TestExternalWorkloadNeverStored(t *testing.T) {
	ctx := context.Background()
	st := &memStore{}
	ev := prophet.New(prophet.WithWorkers(1))
	ev.UseResultStore(st)
	w, err := prophet.Find(champsimFixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(ctx, w, prophet.Triangel); err != nil {
		t.Fatal(err)
	}
	if n := st.len(); n != 0 {
		t.Fatalf("external workload wrote %d durable store entries, want 0", n)
	}
	// A poisoned store entry for the same job must not be served either.
	job := prophet.Job{Workload: w, Scheme: prophet.Triangel}
	if err := st.Put(prophet.StoreKey(job), []byte(`{"stats":{}}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := prophet.StoreLookup(st, job); ok {
		t.Fatal("StoreLookup served a durable entry for an external-path workload")
	}
	// Catalog workloads keep writing through — the rule is scoped to
	// external paths.
	mcf, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(ctx, mcf.WithRecords(5_000), prophet.Baseline); err != nil {
		t.Fatal(err)
	}
	if st.len() != 2 { // the poisoned entry + the catalog result
		t.Fatalf("catalog workload did not write through: store has %d entries", st.len())
	}
}

// TestSourcesAdvertised: the prefix table lists the catalog namespace,
// file:, and every registered ingest format.
func TestSourcesAdvertised(t *testing.T) {
	got := map[string]bool{}
	for _, s := range prophet.Sources() {
		got[s.Prefix] = true
	}
	for _, want := range []string{"", "file:", "champsim:", "csv:"} {
		if !got[want] {
			t.Errorf("Sources() missing prefix %q (got %v)", want, got)
		}
	}
}
