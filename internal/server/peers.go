// Elastic fleet membership: the /v1/peers resource lets prophetd workers
// join and leave a coordinator's sweep fleet at runtime. A worker started
// with -join POSTs its advertised URL periodically as a heartbeat; the
// coordinator registers it with the evaluator's dispatcher and expires it
// after PeerTTL without one, so a crashed worker drains automatically —
// its queued chunks reroute to survivors and its in-flight batches fail
// over, never losing or duplicating a job. Peers from the static -peers
// flag are registered as permanent: they never expire (no heartbeat is
// expected of them) but can still be drained explicitly with DELETE.
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// peerEntry is the registry's record of one fleet member.
type peerEntry struct {
	static   bool // configured at startup; exempt from TTL expiry
	lastSeen time.Time
}

// peerRegistry tracks fleet membership and heartbeats for one server. The
// evaluator's dispatcher holds the authoritative live fleet; the registry
// adds the lifecycle metadata (who is static, who heartbeated when) and
// drives expiry.
type peerRegistry struct {
	mu    sync.Mutex
	peers map[string]*peerEntry
	ttl   time.Duration
	now   func() time.Time
}

func newPeerRegistry(ttl time.Duration, now func() time.Time, static []string) *peerRegistry {
	r := &peerRegistry{peers: make(map[string]*peerEntry), ttl: ttl, now: now}
	for _, u := range static {
		r.peers[u] = &peerEntry{static: true, lastSeen: now()}
	}
	return r
}

// normalizePeerURL validates and canonicalizes a peer base URL.
func normalizePeerURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("url is required")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("invalid url %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("invalid url %q: need http(s)://host[:port]", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// touch registers a peer or renews its heartbeat, reporting whether the
// peer is new to the registry.
func (r *peerRegistry) touch(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.peers[url]; ok {
		e.lastSeen = r.now()
		return false
	}
	r.peers[url] = &peerEntry{lastSeen: r.now()}
	return true
}

// drop deregisters a peer, reporting whether it was present.
func (r *peerRegistry) drop(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[url]; !ok {
		return false
	}
	delete(r.peers, url)
	return true
}

// expired removes every dynamic peer whose heartbeat is older than the TTL
// and returns their URLs, oldest first.
func (r *peerRegistry) expired() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-r.ttl)
	var out []string
	for u, e := range r.peers {
		if !e.static && e.lastSeen.Before(cutoff) {
			out = append(out, u)
			delete(r.peers, u)
		}
	}
	sort.Strings(out)
	return out
}

// PeerInfo is one row of the GET /v1/peers listing.
type PeerInfo struct {
	URL string `json:"url"`
	// Static peers come from the -peers flag: drained only by explicit
	// DELETE, never by heartbeat expiry.
	Static bool `json:"static,omitempty"`
	// LastSeenSeconds is the age of the peer's last registration or
	// heartbeat.
	LastSeenSeconds float64 `json:"lastSeenSeconds"`
	// ExpiresInSeconds is the time left before heartbeat expiry drains the
	// peer; absent for static peers.
	ExpiresInSeconds float64 `json:"expiresInSeconds,omitempty"`
}

// PeersResponse is the GET /v1/peers (and POST /v1/peers) body.
type PeersResponse struct {
	// TTLSeconds is the heartbeat expiry window for dynamic peers.
	TTLSeconds float64    `json:"ttlSeconds"`
	Peers      []PeerInfo `json:"peers"`
}

// PeerJoinRequest is the POST /v1/peers body: a worker announcing (or
// re-announcing — the same request is the heartbeat) its base URL.
type PeerJoinRequest struct {
	URL string `json:"url"`
}

// reapPeers expires overdue dynamic peers and drains them from the
// dispatcher. Called lazily from the peer handlers and stats, plus
// periodically from the background reaper, so expiry happens within one
// heartbeat interval even on an otherwise idle coordinator.
func (s *Server) reapPeers() {
	for _, u := range s.peerReg.expired() {
		if s.ev.RemoveBackend(u) {
			s.logf("peer %s expired after %s without a heartbeat; drained from the fleet", u, s.peerReg.ttl)
		}
	}
}

// peersResponse snapshots the registry in dispatcher (join) order.
func (s *Server) peersResponse() PeersResponse {
	resp := PeersResponse{
		TTLSeconds: s.peerReg.ttl.Seconds(),
		Peers:      []PeerInfo{},
	}
	now := s.now()
	s.peerReg.mu.Lock()
	defer s.peerReg.mu.Unlock()
	for _, u := range s.ev.Backends() {
		e, ok := s.peerReg.peers[u]
		if !ok {
			// Fleet member the registry doesn't know (joined through the Go
			// API): list it as static so clients still see the whole fleet.
			resp.Peers = append(resp.Peers, PeerInfo{URL: u, Static: true})
			continue
		}
		info := PeerInfo{URL: u, Static: e.static, LastSeenSeconds: now.Sub(e.lastSeen).Seconds()}
		if !e.static {
			info.ExpiresInSeconds = e.lastSeen.Add(s.peerReg.ttl).Sub(now).Seconds()
		}
		resp.Peers = append(resp.Peers, info)
	}
	return resp
}

// handlePeersList serves GET /v1/peers.
func (s *Server) handlePeersList(w http.ResponseWriter, r *http.Request) {
	s.reapPeers()
	writeJSON(w, http.StatusOK, s.peersResponse())
}

// handlePeerJoin serves POST /v1/peers: register a worker, or renew its
// heartbeat — the same idempotent request serves both, so workers just
// re-POST on an interval comfortably inside the TTL.
func (s *Server) handlePeerJoin(w http.ResponseWriter, r *http.Request) {
	s.reapPeers()
	var req PeerJoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	u, err := normalizePeerURL(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.peerReg.touch(u)
	// AddBackend is idempotent, so a heartbeat for a known peer is a no-op
	// here — and a peer the dispatcher somehow lost (e.g. drained through
	// the Go API while still heartbeating) rejoins on its next beat.
	if s.ev.AddBackend(u) {
		s.logf("peer %s joined the fleet (ttl %s)", u, s.peerReg.ttl)
	}
	writeJSON(w, http.StatusOK, s.peersResponse())
}

// handlePeerLeave serves DELETE /v1/peers?url=...: an explicit drain, for
// workers shutting down gracefully (or operators removing a static peer).
// The peer stops receiving chunks immediately; batches it was still
// retrying fail over to the coordinator's engine.
func (s *Server) handlePeerLeave(w http.ResponseWriter, r *http.Request) {
	s.reapPeers()
	u, err := normalizePeerURL(r.URL.Query().Get("url"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	known := s.peerReg.drop(u)
	if s.ev.RemoveBackend(u) {
		s.logf("peer %s drained from the fleet", u)
		known = true
	}
	if !known {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown peer %q", u))
		return
	}
	writeJSON(w, http.StatusOK, s.peersResponse())
}

// reapLoop expires overdue peers in the background so a dead worker drains
// within roughly one heartbeat interval even when no requests arrive.
func (s *Server) reapLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
			s.reapPeers()
		}
	}
}
