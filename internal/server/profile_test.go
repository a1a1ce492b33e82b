// Tests for the profiling surface: the /debug/pprof mounts. The CPU
// profile endpoint drives the real runtime/pprof profiler, so it must not
// overlap another CPU profile in this test binary.
package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

func TestDebugPprofEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index = %d", code)
	}
	// Named profiles route through the index handler's trailing-slash mount.
	if code, _ := get(t, ts, "/debug/pprof/heap"); code != http.StatusOK {
		t.Errorf("heap profile = %d", code)
	}
	if code, _ := get(t, ts, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("cmdline = %d", code)
	}
	if code, _ := get(t, ts, "/debug/pprof/symbol"); code != http.StatusOK {
		t.Errorf("symbol = %d", code)
	}
	// The CPU profile is the PGO loop's capture step: a gzipped
	// profile.proto that `go tool pprof` reads as is.
	code, body = get(t, ts, "/debug/pprof/profile?seconds=1")
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Errorf("cpu profile = %d, %d bytes, want 200 and a gzip body", code, len(body))
	}
	// Profiling is served only under /debug/pprof.
	if code, _ := post(t, ts, "/v1/profile/start", ""); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/profile/start = %d, want 404 or 405", code)
	}
}
