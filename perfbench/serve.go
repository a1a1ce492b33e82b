package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prophet"
	"prophet/internal/resultstore"
	"prophet/internal/server"
)

const (
	// diskRounds is how many fresh server instances the disk phase starts;
	// each answers every key once from the durable store.
	diskRounds = 150
	// memoryRequests is the length of the memory phase.
	memoryRequests = 30_000
	// putStores is how many scratch stores the traced run fills to time
	// resultstore.Put.
	putStores = 5
)

// serveBench is serve-tiers: an in-process prophetd (server.New over a
// resultstore in a temporary directory, the Evaluator writing through it)
// served by httptest to a closed loop of two clients. Three phases must each
// be answered by their own tier: fill (POST /v1/sweep computes every key and
// writes it to the store), disk (fresh servers with a cold LRU) and memory
// (repeats answered from the LRU of the last server).
type serveBench struct {
	rng    *rand.Rand
	dir    string
	ev     *prophet.Evaluator
	store  *resultstore.Store
	jobs   []prophet.Job
	cur    atomic.Pointer[server.Server]
	hs     *httptest.Server
	client *http.Client
	// served sums the tiers of every server instance this process started.
	served tiers
}

func newServeBench(seed, repeat uint64) (bench, error) {
	jobs, err := sweepJobs(seed, repeat)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return nil, err
	}
	ev := prophet.New(prophet.WithWorkers(workers))
	store, err := resultstore.Open(filepath.Join(dir, "results.log"), resultstore.Options{Fingerprint: ev.StoreFingerprint()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ev.UseResultStore(store)
	b := &serveBench{
		rng:    rand.New(rand.NewPCG(seed, repeat^0xd15c)),
		dir:    dir,
		ev:     ev,
		store:  store,
		jobs:   jobs,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
	}
	b.cur.Store(b.newServer())
	b.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.cur.Load().Handler().ServeHTTP(w, r)
	}))
	return b, nil
}

func (b *serveBench) newServer() *server.Server {
	return server.New(server.Config{Evaluator: b.ev, Store: b.store, Logf: func(string, ...any) {}})
}

// swap routes further requests to a fresh server instance (cold LRU, same
// store) and closes the old one after adding its tiers to served.
func (b *serveBench) swap(res *childResult) {
	old := b.cur.Swap(b.newServer())
	b.retire(old, res)
}

func (b *serveBench) retire(s *server.Server, res *childResult) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		res.Attempted++
		res.fail("stats: %v", err)
	}
	b.served = b.served.add(tiers(st.Tiers))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		res.Attempted++
		res.fail("close server: %v", err)
	}
}

// close releases the serving stack. Its errors are dropped: every result has
// been reported by now, and the store is scratch, removed with its directory.
func (b *serveBench) close() {
	b.hs.Close()
	b.cur.Load().Close(context.Background())
	b.client.CloseIdleConnections()
	b.store.Close()
	os.RemoveAll(b.dir)
}

// post sends one JSON request and decodes a 200 reply into out.
func (b *serveBench) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := b.client.Post(b.hs.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// stats reads the current server's tier counters over HTTP.
func (b *serveBench) stats() (tiers, error) {
	resp, err := b.client.Get(b.hs.URL + "/v1/stats")
	if err != nil {
		return tiers{}, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return tiers{}, err
	}
	return tiers(st.Tiers), nil
}

func evaluateRequest(j prophet.Job) server.EvaluateRequest {
	return server.EvaluateRequest{Workload: server.WorkloadRef{Name: j.Workload.Name}, Scheme: string(j.Scheme)}
}

func (b *serveBench) run(tr *tracer, res *childResult) {
	want := b.fill(tr, res)
	if want == nil {
		return
	}
	id := tr.begin("server.disk", 0)
	t0 := time.Now()
	for round := 0; round < diskRounds; round++ {
		b.swap(res)
		// Each key once per round, split between the clients, so no two
		// requests for one key overlap and every one is a disk read.
		order := b.rng.Perm(len(b.jobs))
		b.phase(res, "disk", want, len(order), func(i int) int { return order[i] })
	}
	res.Values["disk_phase_s"] = time.Since(t0).Seconds()
	tr.end(id)

	id = tr.begin("server.memory", 0)
	t0 = time.Now()
	keys := make([]int, memoryRequests)
	for i := range keys {
		keys[i] = b.rng.IntN(len(b.jobs))
	}
	b.phase(res, "memory", want, len(keys), func(i int) int { return keys[i] })
	res.Values["memory_phase_s"] = time.Since(t0).Seconds()
	tr.end(id)
}

// fill sweeps every key through POST /v1/sweep, which computes them and
// writes them through to the store. It returns the rows by job key (nil
// after a failure) and sets the digest the in-process check compares.
func (b *serveBench) fill(tr *tracer, res *childResult) map[string]prophet.RunStats {
	id := tr.begin("server.fill", 0)
	t0 := time.Now()
	req := server.SweepRequest{Jobs: make([]server.EvaluateRequest, len(b.jobs))}
	for i, j := range b.jobs {
		req.Jobs[i] = evaluateRequest(j)
	}
	var resp server.SweepResponse
	res.Attempted++
	if err := b.post("/v1/sweep", req, &resp); err != nil {
		res.fail("fill: %v", err)
		tr.end(id)
		return nil
	}
	res.Values["fill_s"] = time.Since(t0).Seconds()
	tr.end(id)
	want := map[string]prophet.RunStats{}
	var rows []row
	for _, r := range resp.Results {
		res.Attempted++
		if r.Error != "" || r.Stats == nil {
			res.fail("fill %s/%s: %s", r.Workload.Name, r.Scheme, r.Error)
			continue
		}
		rows = append(rows, row{Workload: r.Workload.Name, Scheme: r.Scheme, Stats: *r.Stats, Meta: r.Meta})
		want[r.Workload.Name+"/"+r.Scheme] = *r.Stats
	}
	res.Digest = digest(rows)
	// The sweep path bypasses the LRU, so it routes nothing through the
	// tiers; every result must have reached the store.
	res.Attempted += 2
	if t, err := b.stats(); err != nil {
		res.fail("fill stats: %v", err)
	} else if err := checkTiers(t, 0, "computed"); err != nil {
		res.fail("fill: %v", err)
	}
	if n := b.store.Len(); n != len(b.jobs) {
		res.fail("fill: store holds %d results, want %d", n, len(b.jobs))
	}
	if len(want) != len(b.jobs) {
		return nil
	}
	return want
}

// phase sends n evaluate requests — request i for job key(i) — from the
// clients, client c taking every workers-th request from c. Each answer must
// equal the fill row, and the phase must be answered by tier alone.
func (b *serveBench) phase(res *childResult, tier string, want map[string]prophet.RunStats, n int, key func(i int) int) {
	before, err := b.stats()
	if err != nil {
		res.Attempted++
		res.fail("%s stats: %v", tier, err)
		return
	}
	lat := make([]float64, n)
	failed := make([]string, n)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += workers {
				j := b.jobs[key(i)]
				var out server.EvaluateResponse
				t0 := time.Now()
				err := b.post("/v1/evaluate", evaluateRequest(j), &out)
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				k := j.Workload.Name + "/" + string(j.Scheme)
				if err != nil {
					failed[i] = err.Error()
				} else if out.Stats != want[k] {
					failed[i] = fmt.Sprintf("%s: served stats differ from the fill row", k)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Attempted += n + 1
	for _, f := range failed {
		if f != "" {
			res.fail("%s: %s", tier, f)
		}
	}
	res.Samples[tier] = append(res.Samples[tier], lat...)
	after, err := b.stats()
	if err != nil {
		res.fail("%s stats: %v", tier, err)
		return
	}
	if err := checkTiers(after.sub(before), int64(n), tier); err != nil {
		res.fail("%s phase: %v", tier, err)
	}
}

// layers times the serving layers directly: the handler without the network
// (memory-tier evaluates on a recorder), and the store's Get and Put.
func (b *serveBench) layers(tr *tracer, res *childResult) {
	h := b.cur.Load().Handler()
	var handler []float64
	id := tr.begin("server.handler", 0)
	for i := 0; i < 2000; i++ {
		body, _ := json.Marshal(evaluateRequest(b.jobs[i%len(b.jobs)])) // a plain struct always marshals
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
		res.Attempted++
		if rec.Code != http.StatusOK {
			res.fail("handler: status %d", rec.Code)
		}
	}
	tr.end(id)
	res.Layers["server.handler_us"] = median(handler)
	res.Layers["server.roundtrip_us"] = median(res.Samples["memory"]) * 1e3
	b.retire(b.cur.Load(), res) // counts the last server's tiers
	b.cur.Store(b.newServer())
	res.Layers["server.tier.memory"] = float64(b.served.Memory)
	res.Layers["server.tier.disk"] = float64(b.served.Disk)
	res.Layers["server.tier.computed"] = float64(b.served.Computed)
	res.Layers["server.tier.coalesced"] = float64(b.served.Coalesced)

	keys := make([]string, len(b.jobs))
	for i, j := range b.jobs {
		keys[i] = prophet.StoreKey(j)
	}
	vals := make([][]byte, len(b.jobs))
	var get []float64
	id = tr.begin("resultstore.get", 0)
	for round := 0; round < 50; round++ {
		for i := range keys {
			t0 := time.Now()
			v, ok := b.store.Get(keys[i])
			get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
			vals[i] = v
			if !ok {
				res.Attempted++
				res.fail("store has no %s", keys[i])
			}
		}
	}
	tr.end(id)
	var put []float64
	id = tr.begin("resultstore.put", 0)
	for n := 0; n < putStores; n++ {
		s, err := resultstore.Open(filepath.Join(b.dir, fmt.Sprintf("put-%d.log", n)), resultstore.Options{Fingerprint: b.ev.StoreFingerprint()})
		if err != nil {
			res.Attempted++
			res.fail("open scratch store: %v", err)
			break
		}
		for i := range keys {
			t0 := time.Now()
			err := s.Put(keys[i], vals[i])
			put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				res.Attempted++
				res.fail("put: %v", err)
			}
		}
		if err := s.Close(); err != nil {
			res.Attempted++
			res.fail("close scratch store: %v", err)
		}
	}
	tr.end(id)
	st := b.store.Stats()
	res.Layers["resultstore.get_us"] = median(get)
	res.Layers["resultstore.put_us"] = median(put)
	res.Layers["resultstore.bytes"] = float64(st.Bytes)
	res.Layers["resultstore.corrupt_skipped"] = float64(st.CorruptSkipped)
}

// verify makes the independent check of the fill rows: an in-process sweep
// of the same jobs, with no server and no store.
func (b *serveBench) verify(res *childResult) {
	rows := sweepRows(prophet.New(prophet.WithWorkers(workers)), b.jobs, res)
	res.Digest = digest(rows)
}
