// Package server implements prophetd's HTTP/JSON API: the full evaluation
// engine — single runs, concurrent sweeps, and the Figure 5
// profile→optimize→run loop — exposed as a long-lived service.
//
// The layering mirrors the engine's own caching story one level up:
//
//   - internal/pipeline caches per-workload baselines inside one Evaluator
//     (every normalized metric shares its denominator);
//   - this package caches whole request results across HTTP clients in an
//     internal/memo instance (LRU + TTL, keyed by canonicalized request and
//     trace identity), and coalesces duplicate in-flight requests onto a
//     single simulation (singleflight);
//   - a long sweep can stream its rows (NDJSON) as cells finish; with a
//     durable store, the cells finished before a client disconnects are
//     kept, so re-sending the sweep reads them back from disk;
//   - POST /v1/batch is the fleet-internal bulk endpoint: a coordinator
//     (Evaluator with WithBackends, or prophetd -peers) ships a whole
//     shard of sweep jobs in one request, executed strictly on this
//     daemon's engine so fan-out terminates at one hop.
//
// Everything the engine guarantees — determinism across worker counts,
// errors-never-panics — holds through the HTTP layer: a fixed request body
// yields byte-identical response bodies whatever the concurrency.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prophet"

	"prophet/internal/ingest"
	"prophet/internal/memo"
	"prophet/internal/resultstore"
)

// Config assembles a Server.
type Config struct {
	// Evaluator is the engine to serve. Nil builds a default prophet.New().
	Evaluator *prophet.Evaluator
	// CacheEntries bounds the result cache (default 256; <0 disables the
	// bound).
	CacheEntries int
	// CacheTTL expires cached results (default 10m; <0 caches forever).
	CacheTTL time.Duration
	// Store is the durable result store layered under the in-memory cache
	// (lookup order: memory → disk → compute), reported at /v1/stats. The
	// caller owns the store's lifecycle and attaches it to the Evaluator
	// (UseResultStore), which answers stored jobs from it and writes
	// computed results through. Nil runs without a disk tier.
	Store *resultstore.Store
	// PeerTTL is the heartbeat expiry window for dynamically joined peers
	// (POST /v1/peers): a peer that has not re-registered within the TTL is
	// drained from the fleet (default 15s).
	PeerTTL time.Duration
	// Logf receives operational notices (peer joins, drains, expiries).
	// Nil means the standard library logger.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Server is the prophetd request handler set plus its serving-side state:
// result cache, session registry and peer registry. Construct with New,
// mount Handler on an http.Server, and Close on the way out.
type Server struct {
	ev      *prophet.Evaluator
	results *memo.Memo[*EvaluateResponse]
	// diskHits counts the results misses that RunJob answered from the
	// durable store (Report.FromStore).
	diskHits atomic.Int64
	store    *resultstore.Store // reported at /v1/stats; nil without one
	sess     *sessionStore
	mux      *http.ServeMux
	now      func() time.Time
	start    time.Time
	logf     func(format string, args ...any)

	// engineInFlight counts evaluation requests currently executing —
	// reported by GET /v1/health.
	engineInFlight atomic.Int64

	// peerReg tracks dynamic fleet membership (POST /v1/peers heartbeats);
	// reaperStop ends its background expiry loop.
	peerReg    *peerRegistry
	reaperStop chan struct{}
	reaperOnce sync.Once
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Evaluator == nil {
		cfg.Evaluator = prophet.New()
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 10 * time.Minute
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.PeerTTL <= 0 {
		cfg.PeerTTL = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		ev:      cfg.Evaluator,
		results: memo.New[*EvaluateResponse](cfg.CacheEntries, cfg.CacheTTL, now),
		store:   cfg.Store,
		sess:    newSessionStore(now),
		now:     now,
		start:   now(),
		logf:    cfg.Logf,
		// Peers configured at startup are static: no heartbeat expected,
		// drained only by explicit DELETE /v1/peers.
		peerReg:    newPeerRegistry(cfg.PeerTTL, now, cfg.Evaluator.Backends()),
		reaperStop: make(chan struct{}),
	}
	// The reaper interval is a fraction of the TTL so a dead worker drains
	// within roughly one heartbeat window even on an idle coordinator.
	reapEvery := cfg.PeerTTL / 3
	if reapEvery < time.Second {
		reapEvery = time.Second
	}
	go s.reapLoop(reapEvery)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/peers", s.handlePeersList)
	mux.HandleFunc("POST /v1/peers", s.handlePeerJoin)
	mux.HandleFunc("DELETE /v1/peers", s.handlePeerLeave)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/profile", s.handleSessionProfile)
	mux.HandleFunc("POST /v1/sessions/{id}/optimize", s.handleSessionOptimize)
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleSessionRun)
	s.registerProfileRoutes(mux)
	s.mux = mux
	return s
}

// Handler returns the routed handler for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the peer reaper. Every request runs on its own connection,
// so http.Server.Shutdown is what drains in-flight work; call Close after
// it. It is safe to call more than once and always returns nil.
func (s *Server) Close(context.Context) error {
	s.reaperOnce.Do(func() { close(s.reaperStop) })
	return nil
}

// VersionResponse is the GET /v1/version body.
type VersionResponse struct {
	Version string `json:"version"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{Version: prophet.Version()})
}

// WorkloadsResponse is the GET /v1/workloads body: the catalog entries plus
// the workload-source prefix table, so clients can discover that file: and
// external-trace names (champsim:, csv:) resolve too — with the caveat that
// path-backed workloads read files on the daemon's own disk.
type WorkloadsResponse struct {
	Workloads []prophet.WorkloadInfo `json:"workloads"`
	Sources   []prophet.SourceInfo   `json:"sources"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, WorkloadsResponse{
		Workloads: prophet.CatalogInfo(),
		Sources:   prophet.Sources(),
	})
}

// SchemesResponse is the GET /v1/schemes body.
type SchemesResponse struct {
	Schemes []string `json:"schemes"`
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SchemesResponse{Schemes: s.ev.Schemes()})
}

// CacheStats is a point-in-time snapshot of the serving cache, surfaced at
// GET /v1/stats. Each cache-routed request lands in exactly one tier:
// Hits+DiskHits+Misses+Coalesced equals the number of routed requests, and
// Misses equals the number of computations actually executed for them
// (coalesced requests piggybacked on a leader in flight — whether that
// leader ultimately hit disk or computed, they count only as coalesced).
// A leader still in flight counts as a miss until the store answers it.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	DiskHits  int64 `json:"diskHits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Expired   int64 `json:"expired"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// cacheStats splits the serving memo's misses into disk hits and
// computations. The disk count is read first: the memo counts a leader's
// miss before the leader can reach the store, so the split never goes
// negative and the four tiers always sum to the routed requests.
func (s *Server) cacheStats() CacheStats {
	disk := s.diskHits.Load()
	st := s.results.Stats()
	return CacheStats{
		Hits:      st.Hits,
		DiskHits:  disk,
		Misses:    st.Misses - disk,
		Coalesced: st.Coalesced,
		Expired:   st.Expired,
		Evictions: st.Evictions,
		Entries:   st.Entries,
	}
}

// StatsResponse is the GET /v1/stats body: the daemon's operational
// introspection surface (load tests watch these counters).
type StatsResponse struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"`
	// Options is the engine configuration actually being simulated.
	Options prophet.Options `json:"options"`
	Cache   CacheStats      `json:"cache"`
	// Tiers summarizes where cache-routed evaluate requests were answered.
	// Each request lands in exactly one tier, so the four counters sum to
	// the number of routed requests: memory is an in-memory cache hit, disk
	// a durable-store hit, coalesced a request that piggybacked on one in
	// flight, computed an actual engine run.
	Tiers struct {
		Memory    int64 `json:"memory"`
		Disk      int64 `json:"disk"`
		Coalesced int64 `json:"coalesced"`
		Computed  int64 `json:"computed"`
	} `json:"tiers"`
	// Store reports the durable result store's counters (entries, bytes,
	// hits, corruption skips, compactions); absent when the daemon runs
	// without -store.
	Store    *resultstore.Stats `json:"store,omitempty"`
	Baseline struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"baseline"`
	Sessions int `json:"sessions"`
	// Dispatch reports the sweep fleet: the live peers (static and
	// dynamically joined) and the coordinator's remote/local/retry/failover
	// counters (all zero when the daemon runs standalone).
	Dispatch struct {
		Peers []string              `json:"peers,omitempty"`
		Stats prophet.DispatchStats `json:"stats"`
	} `json:"dispatch"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Version = prophet.Version()
	resp.UptimeSeconds = s.now().Sub(s.start).Seconds()
	resp.Workers = s.ev.Workers()
	resp.Options = s.ev.Options()
	resp.Cache = s.cacheStats()
	resp.Tiers.Memory = resp.Cache.Hits
	resp.Tiers.Disk = resp.Cache.DiskHits
	resp.Tiers.Coalesced = resp.Cache.Coalesced
	resp.Tiers.Computed = resp.Cache.Misses
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	resp.Baseline.Hits, resp.Baseline.Misses = s.ev.BaselineCacheStats()
	resp.Sessions = s.sess.Len()
	s.reapPeers() // stats must reflect expiries even on an idle coordinator
	resp.Dispatch.Peers = s.ev.Backends()
	resp.Dispatch.Stats = s.ev.DispatchStats()
	writeJSON(w, http.StatusOK, resp)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// maxBodyBytes bounds every JSON request body. The largest real body, a
// /v1/batch chunk of job descriptors, is a few KiB.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes a request body into v: unknown fields and
// trailing garbage are errors, so client typos surface as 400s instead of
// silently-defaulted runs. A body over maxBodyBytes is a 413. On failure
// it writes the error response and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.More() {
		err = errors.New("trailing data")
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
	}
	return false
}

// statusFor maps an engine error to an HTTP status: resolution failures
// (unknown workload/scheme, missing or malformed trace file) are the
// client's fault. File errors carry sentinels (fs.ErrNotExist,
// ingest.ErrBadTrace for every trace format); the catalog errors are plain
// fmt.Errorf values, so those are matched by their stable message prefixes.
func statusFor(err error) int {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, ingest.ErrBadTrace) {
		return http.StatusBadRequest
	}
	msg := err.Error()
	if strings.Contains(msg, "unknown workload") || strings.Contains(msg, "unknown scheme") ||
		strings.Contains(msg, "empty workload name") {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
