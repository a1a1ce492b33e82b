// HTTP-level tests for the prophetd API, pinning the acceptance contract:
// (a) N identical concurrent evaluates run exactly one simulation, visible
// in /v1/stats; (b) responses are byte-identical across repeats and worker
// counts; (c) graceful shutdown cancels queued/in-flight jobs and drains
// open connections.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet"

	"prophet/internal/mem"
	"prophet/internal/registry"
)

// The "server-test" scheme is a controllable hook: tests set its body to
// count invocations or block on gates. The default degenerates to the
// cached baseline.
var testSchemeFn struct {
	mu sync.Mutex
	fn func(ctx registry.Context) (registry.Result, error)
}

func setTestScheme(fn func(ctx registry.Context) (registry.Result, error)) {
	testSchemeFn.mu.Lock()
	testSchemeFn.fn = fn
	testSchemeFn.mu.Unlock()
}

func init() {
	registry.MustRegister("server-test", func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			testSchemeFn.mu.Lock()
			fn := testSchemeFn.fn
			testSchemeFn.mu.Unlock()
			if fn != nil {
				return fn(ctx)
			}
			return registry.Result{Stats: ctx.Baseline()}, nil
		})
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func stats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	code, b := get(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", code, b)
	}
	var st StatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMetadataEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, b := get(t, ts, "/v1/workloads")
	if code != http.StatusOK {
		t.Fatalf("/v1/workloads: %d %s", code, b)
	}
	var wl WorkloadsResponse
	if err := json.Unmarshal(b, &wl); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	names := map[string]bool{}
	for _, w := range wl.Workloads {
		kinds[w.Kind] = true
		names[w.Name] = true
		if w.DefaultRecords == 0 {
			t.Errorf("workload %s has no default records", w.Name)
		}
	}
	if !names["mcf"] || !kinds["spec"] || !kinds["graph"] {
		t.Fatalf("catalog incomplete: names[mcf]=%v kinds=%v", names["mcf"], kinds)
	}

	code, b = get(t, ts, "/v1/schemes")
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"prophet"`)) {
		t.Fatalf("/v1/schemes: %d %s", code, b)
	}

	code, b = get(t, ts, "/v1/version")
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"version"`)) {
		t.Fatalf("/v1/version: %d %s", code, b)
	}

	if code, _ := get(t, ts, "/v1/jobs/job-404"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"scheme":"triangel"}`, http.StatusBadRequest},                            // missing workload
		{`{"workload":{"name":"sphinx3"}}`, http.StatusBadRequest},                  // missing scheme
		{`{"workload":{"name":"sphinx3"},"shceme":"x"}`, http.StatusBadRequest},     // unknown field
		{`{"workload":{"name":"nope"},"scheme":"triangel"}`, http.StatusBadRequest}, // unknown workload
		{`{"workload":{"name":"sphinx3","records":20000},"scheme":"warp"}`, http.StatusBadRequest},
		// The RPG2 tuning-trace cap is no longer a request field.
		{`{"workload":{"name":"mcf","records":20000},"scheme":"rpg2","tuneRecords":5000}`, http.StatusBadRequest},
		// Missing and malformed trace files are client errors, not 500s.
		{`{"workload":{"name":"file:/no/such.trc"},"scheme":"triangel"}`, http.StatusBadRequest},
	} {
		if code, b := post(t, ts, "/v1/evaluate", tc.body); code != tc.want {
			t.Errorf("body %s: status %d (%s), want %d", tc.body, code, b, tc.want)
		}
	}
	if code, _ := post(t, ts, "/v1/sweep", `{}`); code != http.StatusBadRequest {
		t.Errorf("empty sweep accepted")
	}
}

// TestOversizedBodyRejected: a body over maxBodyBytes is a 413 with the
// usual JSON error, and nothing is simulated. Both bodies would be valid
// requests without the bound (the padded name is trimmed on resolution).
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pad := strings.Repeat(" ", maxBodyBytes)
	evaluate := `{"workload":{"name":"sphinx3` + pad + `","records":20000},"scheme":"baseline"}`
	cell := `{"name":"sphinx3","records":20000},`
	sweep := `{"workloads":[` + strings.Repeat(cell, maxBodyBytes/len(cell)) +
		`{"name":"sphinx3","records":20000}],"schemes":["baseline"]}`
	for path, body := range map[string]string{"/v1/evaluate": evaluate, "/v1/sweep": sweep} {
		code, b := post(t, ts, path, body)
		var e errorResponse
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(b, &e) != nil || e.Error == "" {
			t.Errorf("%s: %d %.80s, want 413 with a JSON error", path, code, b)
		}
	}
	if st := stats(t, ts); st.Tiers.Computed != 0 {
		t.Errorf("oversized bodies computed %d results, want 0", st.Tiers.Computed)
	}
}

// TestEvaluateCoalescing is acceptance criterion (a): N identical
// concurrent POST /v1/evaluate requests trigger exactly one simulation,
// observable through /v1/stats.
func TestEvaluateCoalescing(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	defer setTestScheme(nil)

	_, ts := newTestServer(t, Config{})
	const clients = 6
	body := `{"workload":{"name":"sphinx3","records":20000},"scheme":"server-test"}`

	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = post(t, ts, "/v1/evaluate", body)
		}(i)
	}

	<-started // the leader is inside the simulation; everyone else must coalesce
	deadline := time.Now().Add(10 * time.Second)
	for stats(t, ts).Cache.Coalesced < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("stuck: stats %+v", stats(t, ts))
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", clients, n)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body diverged:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	st := stats(t, ts)
	if st.Cache.Misses != 1 || st.Cache.Coalesced != clients-1 {
		t.Fatalf("cache stats %+v, want misses=1 coalesced=%d", st.Cache, clients-1)
	}
}

// TestEvaluateDeterministic is acceptance criterion (b): a fixed request
// yields byte-identical bodies across repeats and across servers with
// different worker counts.
func TestEvaluateDeterministic(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Evaluator: prophet.New(prophet.WithWorkers(1))})
	_, ts8 := newTestServer(t, Config{Evaluator: prophet.New(prophet.WithWorkers(8))})

	eval := `{"workload":{"name":"sphinx3","records":20000},"scheme":"triangel"}`
	code, first := post(t, ts1, "/v1/evaluate", eval)
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, first)
	}
	if _, repeat := post(t, ts1, "/v1/evaluate", eval); !bytes.Equal(first, repeat) {
		t.Fatalf("repeat on one server diverged:\n%s\n%s", first, repeat)
	}
	if st := stats(t, ts1); st.Cache.Hits < 1 {
		t.Fatalf("repeat did not hit the cache: %+v", st.Cache)
	}
	if _, other := post(t, ts8, "/v1/evaluate", eval); !bytes.Equal(first, other) {
		t.Fatalf("1-worker vs 8-worker servers diverged:\n%s\n%s", first, other)
	}

	sweep := `{"workloads":[{"name":"sphinx3","records":20000},{"name":"xalancbmk","records":20000}],` +
		`"schemes":["baseline","triangel"]}`
	_, s1 := post(t, ts1, "/v1/sweep", sweep)
	_, s8 := post(t, ts8, "/v1/sweep", sweep)
	if !bytes.Equal(s1, s8) {
		t.Fatalf("sweep diverged across worker counts:\n%s\n%s", s1, s8)
	}
	var sr SweepResponse
	if err := json.Unmarshal(s1, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 4 {
		t.Fatalf("sweep returned %d rows, want 4", len(sr.Results))
	}
	for i, row := range sr.Results {
		if row.Error != "" || row.Stats == nil {
			t.Fatalf("row %d: %+v", i, row)
		}
	}
}

// TestAsyncSweepJobFlow: async sweeps return 202 + a pollable job that
// finishes with the same payload a synchronous sweep returns.
func TestAsyncSweepJobFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workloads":[{"name":"sphinx3","records":20000}],"schemes":["baseline"],"async":true}`
	code, b := post(t, ts, "/v1/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("async sweep: %d %s", code, b)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info JobInfo
	for {
		code, jb := get(t, ts, acc.Poll)
		if code != http.StatusOK {
			t.Fatalf("poll: %d %s", code, jb)
		}
		if err := json.Unmarshal(jb, &info); err != nil {
			t.Fatal(err)
		}
		if info.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.State != JobDone || info.Error != "" {
		t.Fatalf("job finished %s (%s), want done", info.State, info.Error)
	}
	// The async result round-trips as generic JSON; spot-check its shape.
	res, err := json.Marshal(info.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(res, []byte(`"Speedup":1`)) {
		t.Fatalf("async sweep result missing baseline speedup: %s", res)
	}
}

// TestGracefulShutdown is acceptance criterion (c): on shutdown, queued
// jobs are cancelled, the in-flight job observes cancellation, and open
// HTTP connections drain to completion.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	var inflight atomic.Int64
	arrived := make(chan struct{}, 8)
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		inflight.Add(1)
		arrived <- struct{}{}
		<-release
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	defer setTestScheme(nil)

	srv := New(Config{JobWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One async sweep occupies the single job worker...
	code, b := post(t, ts, "/v1/sweep",
		`{"workloads":[{"name":"sphinx3","records":20000}],"schemes":["server-test"],"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async sweep 1: %d %s", code, b)
	}
	var first SweepAccepted
	json.Unmarshal(b, &first)
	<-arrived // its simulation is now in flight

	// ...a second async sweep waits in the queue...
	code, b = post(t, ts, "/v1/sweep",
		`{"workloads":[{"name":"xalancbmk","records":20000}],"schemes":["baseline"],"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async sweep 2: %d %s", code, b)
	}
	var queued SweepAccepted
	json.Unmarshal(b, &queued)

	// ...and a synchronous evaluate holds an open connection.
	syncDone := make(chan struct{})
	var syncCode int
	var syncBody []byte
	go func() {
		defer close(syncDone)
		syncCode, syncBody = post(t, ts, "/v1/evaluate",
			`{"workload":{"name":"sphinx3","records":19000},"scheme":"server-test"}`)
	}()
	<-arrived // the evaluate's simulation is in flight too

	// Begin graceful shutdown while everything is mid-air.
	httpDone := make(chan error, 1)
	jobsDone := make(chan error, 1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { httpDone <- ts.Config.Shutdown(shutdownCtx) }()
	go func() { jobsDone <- srv.Close(shutdownCtx) }()

	// The queued job must die without ever running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, ok := srv.jobs.Get(queued.JobID)
		if !ok {
			t.Fatal("queued job vanished")
		}
		if info.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job not cancelled: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := inflight.Load(); n != 2 {
		t.Fatalf("queued job's simulation ran (%d in flight, want 2: job 1 + sync evaluate)", n)
	}

	// Release the gates: the drained connection completes normally and the
	// in-flight job lands in a terminal state having seen cancellation.
	close(release)
	<-syncDone
	if syncCode != http.StatusOK || !bytes.Contains(syncBody, []byte(`"Speedup"`)) {
		t.Fatalf("in-flight evaluate not drained: %d %s", syncCode, syncBody)
	}
	if err := <-httpDone; err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	if err := <-jobsDone; err != nil {
		t.Fatalf("job shutdown: %v", err)
	}
	info, _ := srv.jobs.Get(first.JobID)
	if info.State != JobCanceled {
		t.Fatalf("in-flight job state %s, want canceled (sweep observed cancelled context)", info.State)
	}

	// Post-shutdown, new async work is refused.
	if _, err := srv.jobs.Submit("late", nil); err == nil {
		t.Fatal("Submit accepted after shutdown")
	}
}

// TestSessionFlow drives the Figure 5 loop over HTTP: create → profile →
// optimize → run, plus the error paths (run before optimize, unknown id,
// delete).
func TestSessionFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, b := post(t, ts, "/v1/sessions", "")
	if code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, b)
	}
	var sess SessionInfo
	if err := json.Unmarshal(b, &sess); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + sess.ID

	// Run before optimize is a 409, not a panic or a zero-stats 200.
	if code, _ := post(t, ts, base+"/run", `{"workload":{"name":"omnetpp","records":20000}}`); code != http.StatusConflict {
		t.Fatalf("run before optimize: %d, want 409", code)
	}

	code, b = post(t, ts, base+"/profile", `{"workload":{"name":"omnetpp","records":20000}}`)
	if code != http.StatusOK {
		t.Fatalf("profile: %d %s", code, b)
	}
	var after SessionInfo
	json.Unmarshal(b, &after)
	if after.Loops != 1 || len(after.Profiled) != 1 {
		t.Fatalf("after profile: %+v", after)
	}

	code, b = post(t, ts, base+"/optimize", "")
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"binary"`)) {
		t.Fatalf("optimize: %d %s", code, b)
	}

	code, b = post(t, ts, base+"/run", `{"workload":{"name":"omnetpp","records":20000}}`)
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, b)
	}
	var run SessionRunResponse
	if err := json.Unmarshal(b, &run); err != nil {
		t.Fatal(err)
	}
	if run.Stats.Speedup <= 0 {
		t.Fatalf("run stats %+v", run.Stats)
	}

	code, b = get(t, ts, "/v1/sessions")
	if code != http.StatusOK || !bytes.Contains(b, []byte(sess.ID)) {
		t.Fatalf("list sessions: %d %s", code, b)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+base, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code, _ := get(t, ts, base); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", code)
	}
	if code, _ := post(t, ts, "/v1/sessions/session-999/profile", `{"workload":{"name":"mcf"}}`); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", code)
	}
}

// TestEvaluateFileWorkload: an exported gzip trace evaluated through
// file:<path> matches the generated workload it came from.
func TestEvaluateFileWorkload(t *testing.T) {
	w, err := prophet.Find("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.WithRecords(20_000).Open()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sphinx3.trc.gz")
	if _, err := mem.WriteTraceFile(path, src); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	code, genBody := post(t, ts, "/v1/evaluate",
		`{"workload":{"name":"sphinx3","records":20000},"scheme":"triangel"}`)
	if code != http.StatusOK {
		t.Fatalf("generated evaluate: %d %s", code, genBody)
	}
	code, fileBody := post(t, ts, "/v1/evaluate",
		fmt.Sprintf(`{"workload":{"name":"file:%s"},"scheme":"triangel"}`, path))
	if code != http.StatusOK {
		t.Fatalf("file evaluate: %d %s", code, fileBody)
	}
	var gen, file EvaluateResponse
	json.Unmarshal(genBody, &gen)
	json.Unmarshal(fileBody, &file)
	if gen.Stats != file.Stats {
		t.Fatalf("file trace diverged from generated workload:\n generated %+v\n file      %+v", gen.Stats, file.Stats)
	}
}

// TestEvaluateRegeneratedExternalTrace: the serving cache keys an external
// trace by its file identity, so rewriting the file under the same path
// serves the new trace's result at once instead of the stale one until the
// TTL expires.
func TestEvaluateRegeneratedExternalTrace(t *testing.T) {
	writeFile := func(t *testing.T, path, workload string, records uint64) {
		t.Helper()
		w, err := prophet.Find(workload)
		if err != nil {
			t.Fatal(err)
		}
		src, err := w.WithRecords(records).Open()
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, ".csv") {
			var b strings.Builder
			for a, ok := src.Next(); ok; a, ok = src.Next() {
				fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", a.PC, a.Addr, a.Kind, a.Dep, a.Gap)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := mem.WriteTraceFile(path, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ prefix, file string }{
		{"file:", "w.trc"},
		{"csv:", "w.csv"},
	} {
		t.Run(strings.TrimSuffix(tc.prefix, ":"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.file)
			body := fmt.Sprintf(`{"workload":{"name":"%s%s"},"scheme":"baseline"}`, tc.prefix, path)
			_, ts := newTestServer(t, Config{})

			writeFile(t, path, "sphinx3", 8_000)
			code, first := post(t, ts, "/v1/evaluate", body)
			if code != http.StatusOK {
				t.Fatalf("first evaluate: %d %s", code, first)
			}
			// A different length changes the size, so the identity
			// changes even on a coarse-mtime filesystem.
			writeFile(t, path, "omnetpp", 6_000)
			code, second := post(t, ts, "/v1/evaluate", body)
			if code != http.StatusOK {
				t.Fatalf("second evaluate: %d %s", code, second)
			}
			if bytes.Equal(first, second) {
				t.Fatalf("regenerated trace served the stale result: %s", second)
			}
			_, fresh := newTestServer(t, Config{})
			if _, want := post(t, fresh, "/v1/evaluate", body); !bytes.Equal(second, want) {
				t.Fatalf("regenerated trace result differs from a fresh server's:\n got  %s\n want %s", second, want)
			}
		})
	}
}
