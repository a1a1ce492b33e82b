package server

import (
	"net/http"
	"net/http/pprof"
)

// registerProfileRoutes mounts the standard net/http/pprof family under
// /debug/pprof/ (heap, goroutine, block, mutex, CPU profile, execution
// trace), so an operator can see where a running daemon spends its time.
// GET /debug/pprof/profile?seconds=N captures a CPU profile that
// `go tool pprof` reads directly.
func (s *Server) registerProfileRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
