// End-to-end tests for sharded multi-backend sweep dispatch, pinning the
// acceptance contract: a Sweep sharded across prophetd backends returns
// results byte-identical (same RunStats, same order) to the in-process
// Evaluator.Sweep — including under injected backend failures, where jobs
// fail over to the local engine without being lost or duplicated — and the
// default-configuration figure suite renders byte-identical output against
// a fleet. TestShardedSweepLiveBackends runs the same equivalence against
// real daemons named by PROPHET_SHARD_BACKENDS (CI starts two).
package prophet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prophet"

	"prophet/internal/server"
)

// startWorker launches an in-process prophetd worker (default engine) and
// returns its base URL.
func startWorker(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{Evaluator: prophet.New(prophet.WithWorkers(2))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	return ts.URL
}

// sweepJobs is the standard job matrix: three workloads by three schemes at
// a short trace length, enough to spread across shards.
func sweepJobs(t *testing.T) []prophet.Job {
	t.Helper()
	var ws []prophet.Workload
	for _, name := range []string{"mcf", "omnetpp", "xalancbmk"} {
		w, err := prophet.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.WithRecords(3000))
	}
	return prophet.Jobs(ws, prophet.Baseline, prophet.Triage, prophet.Triangel)
}

// assertSweepsEqual compares two result lists row by row: same job order,
// byte-identical RunStats, equal Meta, matching error messages.
func assertSweepsEqual(t *testing.T, got, want []prophet.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Job.Workload.Name != w.Job.Workload.Name || g.Job.Scheme != w.Job.Scheme {
			t.Fatalf("row %d job (%s,%s), want (%s,%s): order not preserved",
				i, g.Job.Workload.Name, g.Job.Scheme, w.Job.Workload.Name, w.Job.Scheme)
		}
		switch {
		case (g.Err == nil) != (w.Err == nil):
			t.Fatalf("row %d error mismatch: got %v, want %v", i, g.Err, w.Err)
		case g.Err != nil:
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("row %d error text %q, want %q", i, g.Err, w.Err)
			}
		default:
			if g.Stats != w.Stats {
				t.Fatalf("row %d (%s under %s) stats differ:\n got %+v\nwant %+v",
					i, w.Job.Workload.Name, w.Job.Scheme, g.Stats, w.Stats)
			}
			if !reflect.DeepEqual(g.Meta, w.Meta) {
				t.Fatalf("row %d meta %v, want %v", i, g.Meta, w.Meta)
			}
		}
	}
}

func TestShardedSweepMatchesLocal(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	coord := prophet.New(
		prophet.WithBackends(startWorker(t), startWorker(t)),
		prophet.WithWorkers(2),
	)
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)

	st := coord.DispatchStats()
	if st.Remote != int64(len(jobs)) || st.Failovers != 0 {
		t.Fatalf("dispatch stats %+v: want all %d jobs remote, no failovers", st, len(jobs))
	}
}

// One backend is down for good: its shard fails over to the local engine
// and the merged sweep is still byte-identical, with no job lost or run
// into two result rows.
func TestShardedSweepFailoverByteIdentical(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first request

	coord := prophet.New(
		prophet.WithBackends(startWorker(t), dead.URL),
		prophet.WithBackendRetries(2),
		prophet.WithWorkers(2),
	)
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)

	st := coord.DispatchStats()
	if st.Failovers == 0 {
		t.Fatal("dead backend produced no failovers; shard never reached it?")
	}
	if st.Remote+st.Local != int64(len(jobs)) {
		t.Fatalf("dispatch stats %+v: remote+local != %d jobs", st, len(jobs))
	}
}

// A worker simulating a different engine configuration must never have its
// results merged: the coordinator detects the mismatch from the echoed
// Options and fails the shard over to its own (correctly configured)
// engine, keeping the sweep byte-identical to local.
func TestConfigMismatchFailsOver(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{Evaluator: prophet.New(prophet.WithELAcc(0.5), prophet.WithWorkers(2))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})

	coord := prophet.New(
		prophet.WithBackends(ts.URL),
		prophet.WithBackendRetries(1),
		prophet.WithWorkers(2),
	)
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)
	st := coord.DispatchStats()
	if st.Remote != 0 || st.Failovers != int64(len(jobs)) {
		t.Fatalf("dispatch stats %+v: misconfigured worker must contribute nothing remotely", st)
	}
}

// A transiently failing backend (HTTP 500 on its first request) is healed
// by a retry rather than a failover.
func TestShardedSweepRetriesTransientFailure(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{Evaluator: prophet.New(prophet.WithWorkers(2))})
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		flaky.Close()
		srv.Close(context.Background())
	})

	coord := prophet.New(
		prophet.WithBackends(flaky.URL),
		prophet.WithBackendRetries(3),
		prophet.WithWorkers(2),
	)
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)

	st := coord.DispatchStats()
	if st.Retries == 0 || st.Failovers != 0 {
		t.Fatalf("dispatch stats %+v: want retries>0, failovers=0", st)
	}
}

// Per-job failures (unknown workload/scheme) surface with the same error
// text whether the job ran remotely or in process, and batching splits
// (WithBackendMaxBatch) don't disturb ordering.
func TestShardedSweepErrorRowsAndChunking(t *testing.T) {
	jobs := sweepJobs(t)
	jobs = append(jobs,
		prophet.Job{Workload: prophet.Workload{Name: "no_such_workload"}, Scheme: prophet.Baseline},
		prophet.Job{Workload: prophet.Workload{Name: "mcf", Records: 3000}, Scheme: "no_such_scheme"},
		// Whitespace-padded names must fail identically on both paths: the
		// batch wire layer passes fields through verbatim, it never trims.
		prophet.Job{Workload: prophet.Workload{Name: " mcf", Records: 3000}, Scheme: prophet.Baseline},
	)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	coord := prophet.New(
		prophet.WithBackends(startWorker(t), startWorker(t)),
		prophet.WithBackendMaxBatch(2),
		prophet.WithWorkers(2),
	)
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)
}

// Placement decides where each chunk runs, never content or order, so the
// merged results stay byte-identical however the sweep is cut. The subtests
// keep the names of the two placement policies the fleet once offered and
// cover the chunk shapes each produced: "hash" grants whole workload rows
// (MaxBatch = schemes per workload, what workload affinity placed together);
// "least-loaded" grants 2-job chunks that straddle rows over many rounds.
func TestSweepByteIdenticalAcrossSchedulers(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t), startWorker(t)
	for _, tc := range []struct {
		name     string
		maxBatch int
	}{
		{"hash", 3},
		{"least-loaded", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := prophet.New(
				prophet.WithBackends(w1, w2),
				prophet.WithBackendMaxBatch(tc.maxBatch),
				prophet.WithWorkers(2),
			)
			got, err := coord.Sweep(context.Background(), jobs...)
			if err != nil {
				t.Fatal(err)
			}
			assertSweepsEqual(t, got, want)
			st := coord.DispatchStats()
			if st.Remote != int64(len(jobs)) || st.Failovers != 0 {
				t.Fatalf("dispatch stats %+v: want all %d jobs remote in %d-job chunks", st, len(jobs), tc.maxBatch)
			}
		})
	}
}

// Chunks follow job order, so a workload-major sweep hands each worker
// whole workload rows: across the fleet, each workload's baseline is
// simulated exactly once.
func TestFleetSimulatesEachBaselineOnce(t *testing.T) {
	var ws []prophet.Workload
	for _, name := range []string{"mcf", "omnetpp", "sphinx3", "xalancbmk"} {
		w, err := prophet.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.WithRecords(3000))
	}
	jobs := prophet.Jobs(ws, prophet.Baseline, prophet.Triage, prophet.Triangel, prophet.Prophet)
	want, err := prophet.New(prophet.WithWorkers(2)).Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	workers := []string{startWorker(t), startWorker(t)}
	coord := prophet.New(prophet.WithBackends(workers...))
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)

	var misses int64
	for _, u := range workers {
		resp, err := http.Get(u + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		misses += st.Baseline.Misses
	}
	if misses != int64(len(ws)) {
		t.Fatalf("workers simulated %d baselines, want %d (one per workload)", misses, len(ws))
	}
}

// SweepStream against a fleet: every job index is emitted exactly once, and
// the rows merged by index reproduce the buffered sweep byte-for-byte.
func TestSweepStreamMergesToBuffered(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	coord := prophet.New(
		prophet.WithBackends(startWorker(t), startWorker(t)),
		prophet.WithBackendMaxBatch(2),
		prophet.WithWorkers(2),
	)
	merged := make([]prophet.Result, len(jobs))
	seen := make([]int, len(jobs))
	var mu sync.Mutex
	err = coord.SweepStream(context.Background(), func(i int, r prophet.Result) {
		mu.Lock()
		seen[i]++
		merged[i] = r
		mu.Unlock()
	}, jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d emitted %d times, want exactly once", i, n)
		}
	}
	assertSweepsEqual(t, merged, want)
}

// Elastic membership through the public API: backends joined mid-lifetime
// take work, drained backends stop taking it, and the sweep stays
// byte-identical throughout.
func TestElasticBackendMembership(t *testing.T) {
	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}

	coord := prophet.New(prophet.WithWorkers(2)) // starts with no fleet
	if got, err := coord.Sweep(context.Background(), jobs...); err != nil {
		t.Fatal(err)
	} else {
		assertSweepsEqual(t, got, want)
	}

	u := startWorker(t)
	if !coord.AddBackend(u) {
		t.Fatal("AddBackend rejected a new worker")
	}
	if coord.AddBackend(u) {
		t.Fatal("AddBackend accepted a duplicate")
	}
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)
	if st := coord.DispatchStats(); st.Remote == 0 {
		t.Fatalf("dispatch stats %+v: joined worker never took a job", st)
	}

	if !coord.RemoveBackend(u) {
		t.Fatal("RemoveBackend missed a known worker")
	}
	if coord.RemoveBackend(u) {
		t.Fatal("RemoveBackend removed a worker twice")
	}
	if bs := coord.Backends(); len(bs) != 0 {
		t.Fatalf("backends after drain: %v", bs)
	}
	before := coord.DispatchStats().Remote
	if got, err := coord.Sweep(context.Background(), jobs...); err != nil {
		t.Fatal(err)
	} else {
		assertSweepsEqual(t, got, want)
	}
	if after := coord.DispatchStats().Remote; after != before {
		t.Fatalf("drained fleet still ran jobs remotely (%d -> %d)", before, after)
	}
}

// TestShardedSweepLiveBackends is the CI fleet check: it shards a sweep
// across real prophetd processes (started by the workflow) and demands
// byte-identical results to the in-process sweep. Skipped unless
// PROPHET_SHARD_BACKENDS names at least two base URLs.
func TestShardedSweepLiveBackends(t *testing.T) {
	env := os.Getenv("PROPHET_SHARD_BACKENDS")
	if env == "" {
		t.Skip("PROPHET_SHARD_BACKENDS not set")
	}
	var urls []string
	for _, u := range strings.Split(env, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) < 2 {
		t.Fatalf("PROPHET_SHARD_BACKENDS=%q: need at least two URLs for a sharded check", env)
	}

	jobs := sweepJobs(t)
	local := prophet.New(prophet.WithWorkers(2))
	want, err := local.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	coord := prophet.New(prophet.WithBackends(urls...), prophet.WithWorkers(2))
	got, err := coord.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, got, want)
	st := coord.DispatchStats()
	if st.Remote != int64(len(jobs)) {
		t.Fatalf("dispatch stats %+v: want all %d jobs remote against the live fleet", st, len(jobs))
	}

	// A sweep mixing an external trace with catalog workloads: the
	// champsim: jobs pin to the local engine (the path means nothing on a
	// remote peer) while the catalog jobs still shard across the fleet, and
	// the whole thing stays byte-identical to an in-process sweep. Gaze rides
	// along to prove a non-temporal scheme family is sweepable over the fleet.
	ext, err := prophet.Find("champsim:testdata/sample.champsim.gz")
	if err != nil {
		t.Fatal(err)
	}
	mixed := prophet.Jobs([]prophet.Workload{ext}, prophet.Triangel, "gaze")
	extJobs := len(mixed)
	mixed = append(mixed, jobs...)
	mixedWant, err := local.Sweep(context.Background(), mixed...)
	if err != nil {
		t.Fatal(err)
	}
	coord2 := prophet.New(prophet.WithBackends(urls...), prophet.WithWorkers(2))
	mixedGot, err := coord2.Sweep(context.Background(), mixed...)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, mixedGot, mixedWant)
	st = coord2.DispatchStats()
	if st.Local != int64(extJobs) || st.Remote != int64(len(jobs)) {
		t.Fatalf("dispatch stats %+v: want %d external jobs pinned local and %d catalog jobs remote",
			st, extJobs, len(jobs))
	}

	// The same fleet in small batches with streamed delivery: rows arrive
	// in completion order, and the index-merged results are still
	// byte-identical.
	coord3 := prophet.New(
		prophet.WithBackends(urls...),
		prophet.WithBackendMaxBatch(2),
		prophet.WithWorkers(2),
	)
	merged := make([]prophet.Result, len(jobs))
	seen := make([]int, len(jobs))
	var mu sync.Mutex
	if err := coord3.SweepStream(context.Background(), func(i int, r prophet.Result) {
		mu.Lock()
		seen[i]++
		merged[i] = r
		mu.Unlock()
	}, jobs...); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("live stream emitted index %d %d times, want exactly once", i, n)
		}
	}
	assertSweepsEqual(t, merged, want)
}
