// Streaming sweep delivery: POST /v1/sweep with ?stream=1 (or Accept:
// application/x-ndjson) emits result rows as NDJSON, one line each as
// chunks complete, instead of buffering the whole sweep. Every row carries
// the job's index; rows arrive in completion order, so clients reconstruct
// the exact buffered response by sorting rows by index and dropping the
// index field — the payload fields are identical, in identical order, to
// SweepResult. A final trailer object ({"done":true,...}) marks a complete
// stream; its absence means the stream was cut.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"prophet"
)

// streamed reports whether a sweep request asks for NDJSON delivery. The
// query parameter wins over the Accept header, so curl one-liners don't
// need header flags; a stream value other than 1, true or ndjson is an
// error rather than a silent fall back to the buffered body.
func streamed(r *http.Request) (bool, error) {
	v := r.URL.Query().Get("stream")
	switch strings.ToLower(v) {
	case "":
		return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson"), nil
	case "1", "true", "ndjson":
		return true, nil
	}
	return false, fmt.Errorf("invalid stream=%q: want 1, true or ndjson", v)
}

// StreamRow is one streamed sweep result: Index is the job's position in
// the request's job order; the remaining fields are exactly SweepResult's,
// in the same order, so deleting the index from a row yields the
// corresponding buffered results[] element byte-for-byte.
type StreamRow struct {
	Index    int               `json:"index"`
	Workload WorkloadRef       `json:"workload"`
	Scheme   string            `json:"scheme"`
	Stats    *prophet.RunStats `json:"stats,omitempty"`
	Meta     map[string]int    `json:"meta,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// StreamTrailer terminates a sweep stream. Done false (with Error) means
// the sweep itself failed; a missing trailer means the connection was cut.
type StreamTrailer struct {
	Done    bool   `json:"done"`
	Results int    `json:"results"`
	Error   string `json:"error,omitempty"`
}

// streamSweep executes the sweep with incremental delivery. The client
// disconnecting cancels the sweep through the request context.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, jobs []prophet.Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		// No flushing, no streaming: fall back to the buffered path rather
		// than emit rows the client would only see at the end anyway.
		resp, err := s.sweep(r.Context(), jobs)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // commit headers before the first (possibly slow) chunk

	// Rows and trailer share SetEscapeHTML(false) with writeJSON, so a
	// streamed row's payload bytes match the buffered response's. Encode
	// writes each value as one newline-terminated line.
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	writeEvent := func(v any) {
		// A failed write means the client is gone; the request context
		// then cancels the sweep, so there is nothing more to do here.
		_ = enc.Encode(v)
		flusher.Flush()
	}

	defer s.track()()
	count := 0
	err := s.ev.SweepStream(r.Context(), func(i int, res prophet.Result) {
		row := sweepRow(res)
		writeEvent(StreamRow{
			Index:    i,
			Workload: row.Workload,
			Scheme:   row.Scheme,
			Stats:    row.Stats,
			Meta:     row.Meta,
			Error:    row.Error,
		})
		count++
	}, jobs...)
	trailer := StreamTrailer{Done: err == nil, Results: count}
	if err != nil {
		trailer.Error = err.Error()
	}
	writeEvent(trailer)
}
