package server

import (
	"context"
	"net/http"
	"strings"

	"prophet"
)

// WorkloadRef names a workload in a request body. Records 0 means the
// catalog default, exactly as in the Go API.
type WorkloadRef struct {
	Name    string `json:"name"`
	Records uint64 `json:"records,omitempty"`
}

func (w WorkloadRef) workload() prophet.Workload {
	return prophet.Workload{Name: strings.TrimSpace(w.Name), Records: w.Records}
}

// EvaluateRequest is the POST /v1/evaluate body: one (workload, scheme)
// run, normalized to the cached baseline of the same trace.
type EvaluateRequest struct {
	Workload WorkloadRef `json:"workload"`
	Scheme   string      `json:"scheme"`
}

// canonicalize trims free-text fields so trivially different spellings of
// the same request share a cache key.
func (r *EvaluateRequest) canonicalize() {
	r.Workload.Name = strings.TrimSpace(r.Workload.Name)
	r.Scheme = strings.TrimSpace(r.Scheme)
}

// job resolves the canonicalized request into an engine job.
func (r EvaluateRequest) job() prophet.Job {
	return prophet.Job{Workload: r.Workload.workload(), Scheme: prophet.Scheme(r.Scheme)}
}

// cacheKey is the canonical identity of the request for every cache tier.
// It is prophet.StoreKey of the resolved job, so the in-memory serving
// cache, the durable result store, and sweep dispatch all share one key
// space — a result computed through any entry point satisfies the others —
// and a regenerated external trace file is a new key.
func (r EvaluateRequest) cacheKey() string {
	return prophet.StoreKey(r.job())
}

// EvaluateResponse is the POST /v1/evaluate reply.
type EvaluateResponse struct {
	Workload WorkloadRef      `json:"workload"`
	Scheme   string           `json:"scheme"`
	Stats    prophet.RunStats `json:"stats"`
	// Meta carries scheme-specific extras (rpg2: "kernels", "distance";
	// prophet: "hints", "metaWays", "disableTP").
	Meta map[string]int `json:"meta,omitempty"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	req.canonicalize()
	if req.Workload.Name == "" {
		writeError(w, http.StatusBadRequest, "workload.name is required")
		return
	}
	if req.Scheme == "" {
		writeError(w, http.StatusBadRequest, "scheme is required")
		return
	}
	job := req.job()
	// The computation runs detached from this request's context: coalesced
	// waiters share the result, and one client's disconnect must not fail
	// the simulation for everyone who piggybacked on it. RunJob is the disk
	// tier too: it answers a stored job from the durable store without
	// simulating, and writes every result it computes through.
	computeCtx := context.WithoutCancel(r.Context())
	v, err := s.results.Do(r.Context(), req.cacheKey(), func() (*EvaluateResponse, error) {
		defer s.track()()
		rep, err := s.ev.RunJob(computeCtx, job)
		if err != nil {
			return nil, err
		}
		if rep.FromStore {
			s.diskHits.Add(1)
		}
		return &EvaluateResponse{
			Workload: req.Workload,
			Scheme:   req.Scheme,
			Stats:    rep.Stats,
			Meta:     rep.Meta,
		}, nil
	})
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// SweepRequest is the POST /v1/sweep body: the cross product of Workloads ×
// Schemes (workload-major, like prophet.Jobs), plus any explicit extra
// Jobs, fanned out over the evaluator's worker pool.
type SweepRequest struct {
	Workloads []WorkloadRef     `json:"workloads,omitempty"`
	Schemes   []string          `json:"schemes,omitempty"`
	Jobs      []EvaluateRequest `json:"jobs,omitempty"`
}

// jobs expands the request into engine jobs (grid first, explicit extras
// after), mirroring prophet.Jobs ordering.
func (r SweepRequest) jobs() []prophet.Job {
	out := make([]prophet.Job, 0, len(r.Workloads)*len(r.Schemes)+len(r.Jobs))
	for _, w := range r.Workloads {
		for _, sch := range r.Schemes {
			out = append(out, prophet.Job{Workload: w.workload(), Scheme: prophet.Scheme(strings.TrimSpace(sch))})
		}
	}
	for _, j := range r.Jobs {
		j.canonicalize()
		out = append(out, j.job())
	}
	return out
}

// SweepResult is one row of a sweep reply, in job order. Exactly one of
// Stats/Error is set.
type SweepResult struct {
	Workload WorkloadRef       `json:"workload"`
	Scheme   string            `json:"scheme"`
	Stats    *prophet.RunStats `json:"stats,omitempty"`
	Meta     map[string]int    `json:"meta,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// SweepResponse is the buffered POST /v1/sweep reply.
type SweepResponse struct {
	Results []SweepResult `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	stream, err := streamed(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	jobs := req.jobs()
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty sweep: need workloads×schemes or jobs")
		return
	}
	if stream {
		s.streamSweep(w, r, jobs)
		return
	}
	resp, err := s.sweep(r.Context(), jobs)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweep runs the jobs through the engine and shapes the reply. Per-job
// failures land in their result row; only a sweep-level failure (context
// cancellation) is returned as an error.
func (s *Server) sweep(ctx context.Context, jobs []prophet.Job) (SweepResponse, error) {
	defer s.track()()
	results, err := s.ev.Sweep(ctx, jobs...)
	if err != nil {
		return SweepResponse{}, err
	}
	resp := SweepResponse{Results: make([]SweepResult, len(results))}
	for i, res := range results {
		resp.Results[i] = sweepRow(res)
	}
	return resp, nil
}

// sweepRow shapes one engine result into its wire row — shared by the
// buffered and streaming paths so their payloads cannot drift apart.
func sweepRow(res prophet.Result) SweepResult {
	row := SweepResult{
		Workload: WorkloadRef{Name: res.Job.Workload.Name, Records: res.Job.Workload.Records},
		Scheme:   string(res.Job.Scheme),
	}
	if res.Err != nil {
		row.Error = res.Err.Error()
	} else {
		st := res.Stats
		row.Stats = &st
		row.Meta = res.Meta
	}
	return row
}
