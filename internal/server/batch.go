package server

import (
	"net/http"

	"prophet"
)

// handleBatch serves POST /v1/batch: the fleet-internal bulk execution
// endpoint behind sharded sweep dispatch. A coordinator (an Evaluator with
// WithBackends, or a prophetd started with -peers) sends each backend its
// whole shard in one request, amortizing round-trips. The wire types are
// prophet.BatchRequest / prophet.BatchResponse — shared with the client
// side, so coordinator and worker cannot drift apart.
//
// Jobs execute through Evaluator.SweepLocal, never the daemon's own
// dispatcher: fan-out terminates at one hop, so a worker mistakenly
// configured with -peers cannot cascade or loop a batch back into the
// fleet. Per-job failures (unknown workloads, scheme errors) land in their
// result row exactly as in an in-process sweep; only request-level
// failures (malformed body, cancellation) produce an error status, which
// the coordinator treats as a batch failure and retries or fails over.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req prophet.BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: need jobs")
		return
	}
	jobs := make([]prophet.Job, len(req.Jobs))
	for i, bj := range req.Jobs {
		jobs[i] = bj.Job()
	}
	done := s.track()
	results, err := s.ev.SweepLocal(r.Context(), jobs...)
	done()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	// Echo the simulated configuration: the coordinator fails the batch
	// over (to its own, correctly configured engine) on any mismatch.
	resp := prophet.BatchResponse{
		Options: s.ev.Options(),
		Results: make([]prophet.BatchResult, len(results)),
	}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		st := res.Stats
		resp.Results[i] = prophet.BatchResult{Stats: &st, Meta: res.Meta}
	}
	writeJSON(w, http.StatusOK, resp)
}
