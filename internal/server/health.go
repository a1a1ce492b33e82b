package server

import (
	"net/http"

	"prophet"
)

// track counts one evaluation request as in flight for the duration of the
// returned release func. GET /v1/health reports the count, so every
// compute path — evaluate, sweeps (buffered and streamed), and fleet
// batches — must pass through it for the load report to mean anything.
func (s *Server) track() func() {
	s.engineInFlight.Add(1)
	return func() { s.engineInFlight.Add(-1) }
}

// handleHealth serves GET /v1/health: the operator's lightweight load and
// identity snapshot. It must stay cheap — scripts poll it while sweeps run
// — so it reads counters only and never touches the engine.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, prophet.Health{
		Version:  prophet.Version(),
		Engine:   s.ev.StoreFingerprint(),
		Workers:  s.ev.Workers(),
		InFlight: int(s.engineInFlight.Load()),
		Peers:    len(s.ev.Backends()),
	})
}
