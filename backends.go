// Coordinated multi-backend sweep dispatch: the client half of the fleet
// protocol. An Evaluator configured with WithBackends fans Sweep jobs out
// over remote prophetd instances through internal/dispatch — consecutive
// job-order chunks, each granted to the peer with the fewest chunks in
// flight, sent as POST /v1/batch requests with bounded retries and
// failover to the in-process engine — and merges results in job order, so
// output is byte-identical to a local sweep. Backends can also join and
// leave the fleet at runtime (AddBackend/RemoveBackend, driven by
// prophetd's POST /v1/peers). The wire types below are shared with the
// serving side in internal/server, which keeps client and daemon from
// drifting apart.
package prophet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"prophet/internal/dispatch"
)

// BatchJob is one job of a POST /v1/batch request: the serialized form of a
// Job. Records 0 means the catalog default, exactly as in the Go API.
type BatchJob struct {
	Workload string `json:"workload"`
	Records  uint64 `json:"records,omitempty"`
	Scheme   string `json:"scheme"`
}

// Job resolves the wire form back to an engine job. Fields pass through
// verbatim — no trimming or canonicalization — so a job executes remotely
// exactly as it would locally and a sharded sweep stays byte-identical to
// SweepLocal even for malformed names (both sides then produce the same
// error row).
func (bj BatchJob) Job() Job {
	return Job{Workload: Workload{Name: bj.Workload, Records: bj.Records}, Scheme: Scheme(bj.Scheme)}
}

// BatchRequest is the POST /v1/batch body: a batch of sweep jobs executed
// by the receiving daemon's local engine (fan-out terminates at one hop, so
// fleets cannot cascade).
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
}

// BatchResult is one row of a batch reply, in job order. Exactly one of
// Stats/Error is set.
type BatchResult struct {
	Stats *RunStats      `json:"stats,omitempty"`
	Meta  map[string]int `json:"meta,omitempty"`
	Error string         `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch reply. Options echoes the engine
// configuration the daemon actually simulated — the coordinator rejects a
// batch whose configuration differs from its own, turning a misconfigured
// worker into an explicit failover instead of silently merged wrong-config
// results.
type BatchResponse struct {
	Options Options       `json:"options"`
	Results []BatchResult `json:"results"`
}

// Health is the GET /v1/health reply: a lightweight load and identity
// snapshot for operators and scripts (how busy a daemon is, which engine
// it simulates).
type Health struct {
	// Version is the daemon's build version.
	Version string `json:"version"`
	// Engine is the daemon's engine fingerprint (schema generation, build
	// version, simulation options).
	Engine string `json:"engine"`
	// Workers is the daemon's sweep worker pool width.
	Workers int `json:"workers"`
	// QueueDepth is the number of queued async jobs awaiting a worker.
	QueueDepth int `json:"queueDepth"`
	// InFlight counts evaluation requests executing right now, whoever
	// submitted them.
	InFlight int `json:"inFlight"`
	// Peers is the size of the daemon's own backend fleet (0 for a plain
	// worker).
	Peers int `json:"peers"`
}

// batchReplyPerJob bounds the bytes of a peer's /v1/batch reply per job in
// the batch. One BatchResult row encodes to under 1 KiB of JSON, so the
// budget leaves ample headroom while a peer streaming an endless reply
// fails the batch instead of growing the coordinator's heap without bound.
const batchReplyPerJob = 64 << 10

// httpBackend executes job batches against one remote prophetd instance.
// want is the coordinator's engine configuration; replies simulated under
// anything else are treated as backend failures.
type httpBackend struct {
	base   string // URL prefix without trailing slash
	client *http.Client
	want   Options
}

func (b *httpBackend) Name() string { return b.base }

func (b *httpBackend) Execute(ctx context.Context, jobs []Job) ([]Result, error) {
	req := BatchRequest{Jobs: make([]BatchJob, len(jobs))}
	for i, j := range jobs {
		req.Jobs[i] = BatchJob{Workload: j.Workload.Name, Records: j.Workload.Records, Scheme: string(j.Scheme)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("prophet: backend %s: encode batch: %w", b.base, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("prophet: backend %s: %w", b.base, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("prophet: backend %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("prophet: backend %s: HTTP %d: %s",
			b.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var br BatchResponse
	limit := int64(len(jobs)) * batchReplyPerJob
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(&br); err != nil {
		return nil, fmt.Errorf("prophet: backend %s: decode batch reply: %w", b.base, err)
	}
	if br.Options != b.want {
		return nil, fmt.Errorf("prophet: backend %s: engine configuration mismatch (backend %+v, coordinator %+v) — start the worker with matching flags",
			b.base, br.Options, b.want)
	}
	if len(br.Results) != len(jobs) {
		return nil, fmt.Errorf("prophet: backend %s: %d results for %d jobs",
			b.base, len(br.Results), len(jobs))
	}
	out := make([]Result, len(jobs))
	for i, row := range br.Results {
		out[i].Job = jobs[i]
		switch {
		case row.Error != "":
			// The remote engine runs the exact error paths the local one
			// would, so the message round-trips unchanged.
			out[i].Err = errors.New(row.Error)
		case row.Stats == nil:
			return nil, fmt.Errorf("prophet: backend %s: result %d has neither stats nor error", b.base, i)
		default:
			out[i].Stats = *row.Stats
			out[i].Meta = row.Meta
		}
	}
	return out, nil
}

// DispatchStats snapshots the sweep dispatcher's counters. All zeros when
// no backends are configured.
type DispatchStats struct {
	// Remote counts jobs completed by remote backends.
	Remote int64 `json:"remote"`
	// Local counts jobs completed in process (pinned file: workloads and
	// failovers).
	Local int64 `json:"local"`
	// Retries counts batch retry attempts.
	Retries int64 `json:"retries"`
	// Failovers counts jobs re-run locally after a backend stayed down.
	Failovers int64 `json:"failovers"`
	// Cached counts jobs answered from the durable result store before
	// dispatch (zero unless WithResultStore is configured).
	Cached int64 `json:"cached"`
	// ShortLocal counts result slots the local engine left unfilled by
	// returning fewer results than jobs — should stay zero; nonzero means
	// zero-valued rows were merged.
	ShortLocal int64 `json:"shortLocal"`
}

// pinnedLocal reports jobs that must not leave this process: file: traces
// and external ingest traces (champsim:, csv:) reference paths remote
// daemons cannot read.
func pinnedLocal(j Job) bool { return externalPath(j.Workload.Name) != "" }

// newHTTPBackend builds the dispatch backend for one peer base URL.
func (e *Evaluator) newHTTPBackend(base string) *httpBackend {
	return &httpBackend{base: base, client: e.backendClient, want: e.opts}
}

// AddBackend joins a prophetd peer to the sweep fleet at runtime, effective
// from the next grant round of any in-flight sweep. URLs are
// normalized (trailing slash dropped); it reports false for an empty URL or
// a peer already in the fleet.
func (e *Evaluator) AddBackend(url string) bool {
	base := strings.TrimRight(url, "/")
	if base == "" {
		return false
	}
	return e.disp.Add(e.newHTTPBackend(base))
}

// RemoveBackend drains a peer from the sweep fleet: it stops receiving new
// chunks immediately, and batches it was still retrying fail over to the
// local engine, so no job is lost or duplicated. It reports false when the
// peer is not in the fleet.
func (e *Evaluator) RemoveBackend(url string) bool {
	return e.disp.Remove(strings.TrimRight(url, "/"))
}

// newDispatcher wires the evaluator's fleet coordinator. Called from New
// after the local engine exists (the dispatcher's failover closes over it);
// the dispatcher always exists so peers can join an initially empty fleet.
func (e *Evaluator) newDispatcher() *dispatch.Dispatcher[Job, Result] {
	if e.backendClient == nil {
		// No client-level timeout: simulations legitimately run long.
		// Callers bound sweeps with the context.
		e.backendClient = &http.Client{}
	}
	ring := make([]dispatch.Backend[Job, Result], len(e.backendURLs))
	for i, u := range e.backendURLs {
		ring[i] = e.newHTTPBackend(strings.TrimRight(u, "/"))
	}
	return dispatch.New(dispatch.Config[Job, Result]{
		Backends: ring,
		Logf:     e.logf,
		Local: func(ctx context.Context, jobs []Job) []Result {
			rs, _ := e.sweepLocal(ctx, jobs...)
			return rs
		},
		Pin:      pinnedLocal,
		Retries:  e.backendRetries,
		MaxBatch: e.backendMaxBatch,
		// The durable result store is the fleet's shared cache tier: jobs
		// already stored skip dispatch entirely, and results computed by
		// remote peers are persisted here, so the next sweep (or the next
		// coordinator process on this store) reuses the whole fleet's
		// work. The closures read e.store at call time so UseResultStore
		// can attach the store after construction; they no-op without one.
		CacheGet: func(j Job) (Result, bool) {
			rep, ok := e.storeGet(j)
			if !ok {
				return Result{}, false
			}
			return Result{Job: j, Stats: rep.Stats, Meta: rep.Meta}, true
		},
		CachePut: func(j Job, r Result) {
			if r.Err != nil {
				return
			}
			e.storePut(j, Report{Stats: r.Stats, Meta: r.Meta})
		},
	})
}
