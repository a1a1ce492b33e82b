// HTTP-level tests for the durable result store tier: warm restarts answer
// from disk with byte-identical bodies and zero simulations, concurrent
// identical requests produce one computation and one store write, and the
// /v1/stats tier counters account for every routed request exactly once.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prophet"

	"prophet/internal/mem"
	"prophet/internal/registry"
	"prophet/internal/resultstore"
)

// storeServer boots a server with a durable store at path, wired the way
// cmd/prophetd wires it: fingerprint from the evaluator, store attached to
// both the evaluator (write-through) and the serving layer (disk tier).
func storeServer(t *testing.T, path string) (*Server, *httptest.Server, *resultstore.Store) {
	t.Helper()
	ev := prophet.New(prophet.WithWorkers(2))
	st, err := resultstore.Open(path, resultstore.Options{Fingerprint: ev.StoreFingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ev.UseResultStore(st)
	s, ts := newTestServer(t, Config{Evaluator: ev, Store: st})
	return s, ts, st
}

const storeEvalBody = `{"workload":{"name":"sphinx3","records":20000},"scheme":"server-test"}`

// TestEvaluateWarmRestartServesFromDisk is the acceptance criterion in
// miniature: a fresh server process on the same store file answers a
// repeated evaluate from the disk tier — byte-identical body, zero
// simulations — and /v1/stats attributes the request to the disk tier.
func TestEvaluateWarmRestartServesFromDisk(t *testing.T) {
	var sims int
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		sims++
		return registry.Result{Stats: ctx.Baseline(), Meta: map[string]int{"tag": 7}}, nil
	})
	t.Cleanup(func() { setTestScheme(nil) })

	path := t.TempDir() + "/results.prst"
	_, ts, _ := storeServer(t, path)
	code, cold := post(t, ts, "/v1/evaluate", storeEvalBody)
	if code != http.StatusOK {
		t.Fatalf("cold evaluate: %d %s", code, cold)
	}
	if sims != 1 {
		t.Fatalf("cold evaluate ran %d simulations, want 1", sims)
	}
	ts.Close()

	// The warm restart: a brand-new evaluator and server on the same file.
	_, ts2, _ := storeServer(t, path)
	code, warm := post(t, ts2, "/v1/evaluate", storeEvalBody)
	if code != http.StatusOK {
		t.Fatalf("warm evaluate: %d %s", code, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold:\n cold %s\n warm %s", cold, warm)
	}
	if sims != 1 {
		t.Fatalf("warm evaluate simulated (%d total runs), want disk-tier answer", sims)
	}
	st := stats(t, ts2)
	if st.Tiers.Disk != 1 || st.Tiers.Computed != 0 || st.Tiers.Memory != 0 {
		t.Fatalf("tiers %+v, want exactly one disk hit", st.Tiers)
	}
	if st.Baseline.Misses != 0 {
		t.Fatalf("warm restart simulated %d baselines, want 0", st.Baseline.Misses)
	}
	if st.Store == nil || st.Store.Hits < 1 {
		t.Fatalf("store stats %+v, want reported with hits", st.Store)
	}
}

// TestColdEvaluateProbesStoreOnce: a cold evaluate consults the durable
// store once, then computes and writes through.
func TestColdEvaluateProbesStoreOnce(t *testing.T) {
	setTestScheme(nil)
	_, ts, st := storeServer(t, t.TempDir()+"/results.prst")
	if code, b := post(t, ts, "/v1/evaluate", storeEvalBody); code != http.StatusOK {
		t.Fatalf("cold evaluate: %d %s", code, b)
	}
	if ss := st.Stats(); ss.Misses != 1 || ss.Writes != 1 {
		t.Fatalf("store %+v, want one probe (misses=1) and one write", ss)
	}
	tiers := stats(t, ts).Tiers
	if tiers.Computed != 1 || tiers.Disk != 0 || tiers.Memory != 0 || tiers.Coalesced != 0 {
		t.Fatalf("tiers %+v, want {computed: 1}", tiers)
	}
}

// TestConcurrentEvaluatesWriteStoreOnce: N identical concurrent requests
// coalesce onto one computation and leave exactly one store entry written
// once — and the tier counters sum to N.
func TestConcurrentEvaluatesWriteStoreOnce(t *testing.T) {
	gate := make(chan struct{})
	var sims int
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		sims++
		<-gate
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	t.Cleanup(func() { setTestScheme(nil) })

	s, ts, st := storeServer(t, t.TempDir()+"/results.prst")
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			code, b := post(t, ts, "/v1/evaluate", storeEvalBody)
			if code != http.StatusOK {
				t.Errorf("evaluate: %d %s", code, b)
			}
			bodies[i] = b
		}()
	}
	// Release the leader once everyone else has coalesced behind it.
	for s.cacheStats().Coalesced != clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("body %d differs:\n %s\n %s", i, bodies[0], bodies[i])
		}
	}
	if sims != 1 {
		t.Fatalf("%d simulations for %d identical requests, want 1", sims, clients)
	}
	ss := st.Stats()
	if ss.Writes != 1 || ss.DupWrites != 0 || st.Len() != 1 {
		t.Fatalf("store %+v len=%d, want exactly one write and one entry", ss, st.Len())
	}
	cs := s.cacheStats()
	if total := cs.Hits + cs.DiskHits + cs.Misses + cs.Coalesced; total != clients {
		t.Fatalf("tier counters %+v sum to %d for %d requests", cs, total, clients)
	}
	if cs.Misses != 1 || cs.Coalesced != clients-1 {
		t.Fatalf("stats %+v, want misses=1 coalesced=%d", cs, clients-1)
	}
}

// TestSweepPopulatesStoreForEvaluate pins the shared-key contract across
// entry points: a sweep's write-through satisfies a later evaluate from
// the disk tier, with no new simulation.
func TestSweepPopulatesStoreForEvaluate(t *testing.T) {
	var sims int
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		sims++
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	t.Cleanup(func() { setTestScheme(nil) })

	_, ts, st := storeServer(t, t.TempDir()+"/results.prst")
	code, b := post(t, ts, "/v1/sweep",
		`{"workloads":[{"name":"sphinx3","records":20000}],"schemes":["server-test"]}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, b)
	}
	if sims != 1 || st.Len() != 1 {
		t.Fatalf("sweep: sims=%d store entries=%d, want 1/1", sims, st.Len())
	}
	code, b = post(t, ts, "/v1/evaluate", storeEvalBody)
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, b)
	}
	if sims != 1 {
		t.Fatalf("evaluate re-simulated after sweep stored the result (sims=%d)", sims)
	}
	if cs := stats(t, ts); cs.Tiers.Disk != 1 {
		t.Fatalf("tiers %+v, want the evaluate answered from disk", cs.Tiers)
	}
}

// TestFileWorkloadsBypassTheStore: file: traces must never be persisted —
// their contents can change under the same path — and must still evaluate.
func TestFileWorkloadsBypassTheStore(t *testing.T) {
	setTestScheme(nil)
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
	_, ts, st := storeServer(t, t.TempDir()+"/results.prst")
	body := fmt.Sprintf(`{"workload":{"name":"file:%s"},"scheme":"server-test"}`, path)
	code, b := post(t, ts, "/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("file evaluate: %d %s", code, b)
	}
	if st.Len() != 0 {
		t.Fatalf("file: workload was persisted (%d entries)", st.Len())
	}
}

// TestEvaluateUnregisteredSchemeIgnoresStore: a stored entry for a scheme
// this process does not register — left by a build that had it, under an
// unchanged fingerprint — must not be served from the disk tier; the
// request fails as an unknown scheme.
func TestEvaluateUnregisteredSchemeIgnoresStore(t *testing.T) {
	_, ts, st := storeServer(t, t.TempDir()+"/results.prst")
	j := prophet.Job{Workload: prophet.Workload{Name: "sphinx3", Records: 20_000}, Scheme: "no-such-scheme"}
	val, err := prophet.EncodeStoredResult(prophet.Report{Stats: prophet.RunStats{Speedup: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(prophet.StoreKey(j), val); err != nil {
		t.Fatal(err)
	}
	code, b := post(t, ts, "/v1/evaluate", `{"workload":{"name":"sphinx3","records":20000},"scheme":"no-such-scheme"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("evaluate of an unregistered scheme with a stored entry: %d %s, want 400", code, b)
	}
}
