package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"prophet"
)

// sessionResource is one Figure 5 profile→optimize→run loop exposed as a
// REST resource. The underlying prophet.Session is itself concurrency-safe;
// the resource's own mutex additionally guards the last optimized Binary
// and the profiled-workload list.
type sessionResource struct {
	id      string
	num     uint64 // numeric creation-order identity behind the id string
	created time.Time

	mu       sync.Mutex
	s        *prophet.Session
	bin      *prophet.Binary
	profiled []string
	// loops mirrors s.Loops() after each profile: introspection endpoints
	// read this snapshot so listing sessions never blocks behind a
	// long-running profiling simulation holding the session's own lock.
	loops int
}

// sessionStore registers live sessions by ID.
type sessionStore struct {
	now func() time.Time

	mu       sync.Mutex
	sessions map[string]*sessionResource
}

func newSessionStore(now func() time.Time) *sessionStore {
	if now == nil {
		now = time.Now
	}
	return &sessionStore{now: now, sessions: map[string]*sessionResource{}}
}

func (st *sessionStore) Add(s *prophet.Session) *sessionResource {
	res := &sessionResource{
		id:      fmt.Sprintf("session-%d", s.ID()),
		num:     s.ID(),
		created: st.now(),
		s:       s,
	}
	st.mu.Lock()
	st.sessions[res.id] = res
	st.mu.Unlock()
	return res
}

func (st *sessionStore) Get(id string) (*sessionResource, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	res, ok := st.sessions[id]
	return res, ok
}

func (st *sessionStore) Delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sessions[id]; !ok {
		return false
	}
	delete(st.sessions, id)
	return true
}

func (st *sessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

func (st *sessionStore) List() []*sessionResource {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*sessionResource, 0, len(st.sessions))
	for _, res := range st.sessions {
		out = append(out, res)
	}
	// Creation order, not lexicographic: "session-10" sorts after
	// "session-2".
	sort.Slice(out, func(i, j int) bool { return out[i].num < out[j].num })
	return out
}

// BinaryInfo summarizes an optimized Binary in a reply.
type BinaryInfo struct {
	PCHints    int  `json:"pcHints"`
	MetaWays   int  `json:"metaWays"`
	TPDisabled bool `json:"tpDisabled"`
}

// SessionInfo is the GET /v1/sessions/{id} body.
type SessionInfo struct {
	ID       string      `json:"id"`
	Created  time.Time   `json:"created"`
	Loops    int         `json:"loops"`
	Profiled []string    `json:"profiled,omitempty"`
	Binary   *BinaryInfo `json:"binary,omitempty"`
}

func (res *sessionResource) info() SessionInfo {
	res.mu.Lock()
	defer res.mu.Unlock()
	out := SessionInfo{
		ID:       res.id,
		Created:  res.created,
		Loops:    res.loops,
		Profiled: append([]string(nil), res.profiled...),
	}
	if res.bin != nil {
		out.Binary = &BinaryInfo{
			PCHints:    res.bin.PCHints,
			MetaWays:   res.bin.MetaWays,
			TPDisabled: res.bin.TPDisabled,
		}
	}
	return out
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	res := s.sess.Add(s.ev.NewSession())
	writeJSON(w, http.StatusCreated, res.info())
}

// SessionsResponse is the GET /v1/sessions body.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	list := s.sess.List()
	resp := SessionsResponse{Sessions: make([]SessionInfo, 0, len(list))}
	for _, res := range list {
		resp.Sessions = append(resp.Sessions, res.info())
	}
	writeJSON(w, http.StatusOK, resp)
}

// session resolves the path's session or writes a 404.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*sessionResource, bool) {
	id := r.PathValue("id")
	res, ok := s.sess.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
	}
	return res, ok
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	res, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res.info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sess.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// SessionProfileRequest is the POST /v1/sessions/{id}/profile body: one
// input for Steps 1+3 of the Figure 5 loop.
type SessionProfileRequest struct {
	Workload WorkloadRef `json:"workload"`
}

func (s *Server) handleSessionProfile(w http.ResponseWriter, r *http.Request) {
	res, ok := s.session(w, r)
	if !ok {
		return
	}
	var req SessionProfileRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	wl := req.Workload.workload()
	if wl.Name == "" {
		writeError(w, http.StatusBadRequest, "workload.name is required")
		return
	}
	if err := res.s.Profile(wl); err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	loops := res.s.Loops()
	res.mu.Lock()
	res.profiled = append(res.profiled, wl.Name)
	if loops > res.loops {
		res.loops = loops
	}
	res.mu.Unlock()
	writeJSON(w, http.StatusOK, res.info())
}

func (s *Server) handleSessionOptimize(w http.ResponseWriter, r *http.Request) {
	res, ok := s.session(w, r)
	if !ok {
		return
	}
	bin := res.s.Optimize()
	res.mu.Lock()
	res.bin = &bin
	res.mu.Unlock()

	// The full hint list rides along so clients can inspect what would be
	// injected into the binary (Section 4.4), heaviest contributors first.
	type hintJSON struct {
		PC       string `json:"pc"`
		Insert   bool   `json:"insert"`
		Priority int    `json:"priority"`
		Misses   uint64 `json:"misses"`
	}
	hints := bin.Hints()
	out := struct {
		Binary BinaryInfo `json:"binary"`
		Hints  []hintJSON `json:"hints"`
	}{
		Binary: BinaryInfo{PCHints: bin.PCHints, MetaWays: bin.MetaWays, TPDisabled: bin.TPDisabled},
		Hints:  make([]hintJSON, 0, len(hints)),
	}
	for _, h := range hints {
		out.Hints = append(out.Hints, hintJSON{
			PC:       fmt.Sprintf("%#x", h.PC),
			Insert:   h.Insert,
			Priority: h.Priority,
			Misses:   h.Misses,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// SessionRunRequest is the POST /v1/sessions/{id}/run body: execute the
// last optimized binary on a workload.
type SessionRunRequest struct {
	Workload WorkloadRef `json:"workload"`
}

// SessionRunResponse is the POST /v1/sessions/{id}/run reply.
type SessionRunResponse struct {
	Workload WorkloadRef      `json:"workload"`
	Binary   BinaryInfo       `json:"binary"`
	Stats    prophet.RunStats `json:"stats"`
}

func (s *Server) handleSessionRun(w http.ResponseWriter, r *http.Request) {
	res, ok := s.session(w, r)
	if !ok {
		return
	}
	var req SessionRunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	wl := req.Workload.workload()
	if wl.Name == "" {
		writeError(w, http.StatusBadRequest, "workload.name is required")
		return
	}
	res.mu.Lock()
	bin := res.bin
	res.mu.Unlock()
	if bin == nil {
		writeError(w, http.StatusConflict, "session has no optimized binary: POST …/optimize first")
		return
	}
	stats, err := res.s.Run(r.Context(), *bin, wl)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SessionRunResponse{
		Workload: req.Workload,
		Binary:   BinaryInfo{PCHints: bin.PCHints, MetaWays: bin.MetaWays, TPDisabled: bin.TPDisabled},
		Stats:    stats,
	})
}
