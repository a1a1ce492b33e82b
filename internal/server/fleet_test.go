// Fleet coordination tests: the /v1/health snapshot, elastic peer
// membership through /v1/peers (join, heartbeat renewal, TTL expiry,
// explicit drain), and streaming sweep delivery — including the contract
// that streamed rows, merged by index, reproduce the buffered response
// byte-for-byte.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet"

	"prophet/internal/registry"
)

func TestHealthEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	code, b := get(t, ts, "/v1/health")
	if code != http.StatusOK {
		t.Fatalf("/v1/health: %d %s", code, b)
	}
	var h prophet.Health
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Version != prophet.Version() {
		t.Errorf("version %q, want %q", h.Version, prophet.Version())
	}
	if h.Engine != s.ev.StoreFingerprint() {
		t.Errorf("engine fingerprint %q, want %q", h.Engine, s.ev.StoreFingerprint())
	}
	if h.Workers < 1 {
		t.Errorf("workers %d, want >= 1", h.Workers)
	}
	if h.InFlight != 0 || h.Peers != 0 {
		t.Errorf("idle daemon reported inFlight=%d peers=%d", h.InFlight, h.Peers)
	}
}

// TestHealthInFlight pins that the health snapshot sees engine work while
// it runs: an operator polling inFlight (as CI's churn step does) is only
// as well informed as this signal.
func TestHealthInFlight(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		once.Do(func() { close(arrived) })
		<-release
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	t.Cleanup(func() { setTestScheme(nil) })

	_, ts := newTestServer(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts, "/v1/sweep", `{"workloads":[{"name":"sphinx3","records":20000}],"schemes":["server-test"]}`)
	}()
	<-arrived

	_, b := get(t, ts, "/v1/health")
	var h prophet.Health
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.InFlight < 1 {
		t.Errorf("inFlight %d during a running sweep, want >= 1", h.InFlight)
	}
	close(release)
	<-done

	_, b = get(t, ts, "/v1/health")
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.InFlight != 0 {
		t.Errorf("inFlight %d after the sweep finished, want 0", h.InFlight)
	}
}

func peersOf(t *testing.T, b []byte) PeersResponse {
	t.Helper()
	var pr PeersResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatalf("peers response %s: %v", b, err)
	}
	return pr
}

func TestPeerJoinHeartbeatAndExpiry(t *testing.T) {
	clock := newFakeClock()
	ev := prophet.New()
	_, ts := newTestServer(t, Config{Evaluator: ev, PeerTTL: 10 * time.Second, Now: clock.Now, Logf: t.Logf})

	// Join: the peer lands in both the registry and the dispatcher fleet.
	code, b := post(t, ts, "/v1/peers", `{"url":"http://worker-a:8373/"}`)
	if code != http.StatusOK {
		t.Fatalf("join: %d %s", code, b)
	}
	pr := peersOf(t, b)
	if len(pr.Peers) != 1 || pr.Peers[0].URL != "http://worker-a:8373" || pr.Peers[0].Static {
		t.Fatalf("after join: %+v", pr.Peers)
	}
	if pr.TTLSeconds != 10 {
		t.Errorf("ttlSeconds %v, want 10", pr.TTLSeconds)
	}
	if got := ev.Backends(); len(got) != 1 || got[0] != "http://worker-a:8373" {
		t.Fatalf("dispatcher fleet after join: %v", got)
	}

	// A heartbeat inside the TTL renews: the peer survives past the
	// original deadline.
	clock.Advance(8 * time.Second)
	post(t, ts, "/v1/peers", `{"url":"http://worker-a:8373"}`)
	clock.Advance(8 * time.Second)
	_, b = get(t, ts, "/v1/peers")
	if pr = peersOf(t, b); len(pr.Peers) != 1 {
		t.Fatalf("renewed peer expired early: %+v", pr.Peers)
	}
	if age := pr.Peers[0].LastSeenSeconds; age != 8 {
		t.Errorf("lastSeenSeconds %v, want 8", age)
	}

	// No heartbeat past the TTL: the next touch of the registry drains the
	// peer from the dispatcher.
	clock.Advance(3 * time.Second)
	_, b = get(t, ts, "/v1/peers")
	if pr = peersOf(t, b); len(pr.Peers) != 0 {
		t.Fatalf("expired peer still listed: %+v", pr.Peers)
	}
	if got := ev.Backends(); len(got) != 0 {
		t.Fatalf("dispatcher fleet after expiry: %v", got)
	}
}

func TestPeerStaticLifecycle(t *testing.T) {
	clock := newFakeClock()
	ev := prophet.New(prophet.WithBackends("http://static-a:8373"))
	_, ts := newTestServer(t, Config{Evaluator: ev, PeerTTL: 5 * time.Second, Now: clock.Now, Logf: t.Logf})

	// Static peers never expire, no matter how stale.
	clock.Advance(time.Hour)
	_, b := get(t, ts, "/v1/peers")
	pr := peersOf(t, b)
	if len(pr.Peers) != 1 || !pr.Peers[0].Static {
		t.Fatalf("static peer missing after an hour: %+v", pr.Peers)
	}

	// ...but an explicit drain removes them.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/peers?url=http://static-a:8373", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if got := ev.Backends(); len(got) != 0 {
		t.Fatalf("fleet after drain: %v", got)
	}

	// Draining an unknown peer is a 404.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second drain: %d, want 404", resp.StatusCode)
	}
}

func TestPeerJoinValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{`{}`, `{"url":""}`, `{"url":"ftp://x"}`, `{"url":"not a url"}`, `{"nope":1}`} {
		if code, b := post(t, ts, "/v1/peers", body); code != http.StatusBadRequest {
			t.Errorf("join %s: %d %s, want 400", body, code, b)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/peers", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("delete without url: %d, want 400", resp.StatusCode)
	}
}

var streamRowIndex = regexp.MustCompile(`^\{"index":(\d+),`)

// splitStream parses a stream body into indexed row payloads (with the
// index field stripped, as the protocol documents) and the trailer.
func splitStream(t *testing.T, body string) (map[int]string, StreamTrailer) {
	t.Helper()
	rows := make(map[int]string)
	var trailer StreamTrailer
	sawTrailer := false
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if m := streamRowIndex.FindStringSubmatch(line); m != nil {
			i, _ := strconv.Atoi(m[1])
			if _, dup := rows[i]; dup {
				t.Fatalf("index %d streamed twice", i)
			}
			rows[i] = "{" + line[len(m[0]):]
			continue
		}
		if sawTrailer {
			t.Fatalf("unexpected line after trailer: %q", line)
		}
		if err := json.Unmarshal([]byte(line), &trailer); err != nil {
			t.Fatalf("trailer %q: %v", line, err)
		}
		sawTrailer = true
	}
	if !sawTrailer {
		t.Fatal("stream ended without a trailer")
	}
	return rows, trailer
}

// TestSweepStreamMatchesBuffered pins the byte-identity contract end to
// end: NDJSON rows sorted by index, index stripped, must equal the
// buffered /v1/sweep results array element-for-element, byte-for-byte.
func TestSweepStreamMatchesBuffered(t *testing.T) {
	ev := prophet.New()
	_, ts := newTestServer(t, Config{Evaluator: ev})
	body := `{"workloads":[{"name":"sphinx3","records":20000},{"name":"xalancbmk","records":20000}],` +
		`"schemes":["baseline","triangel"],"jobs":[{"workload":{"name":"nosuch"},"scheme":"baseline"}]}`

	code, buffered := post(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("buffered sweep: %d %s", code, buffered)
	}
	var raw struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(buffered, &raw); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	rows, trailer := splitStream(t, sb.String())
	if !trailer.Done || trailer.Results != len(raw.Results) {
		t.Fatalf("trailer %+v, want done with %d results", trailer, len(raw.Results))
	}
	if len(rows) != len(raw.Results) {
		t.Fatalf("%d streamed rows, want %d", len(rows), len(raw.Results))
	}
	for i, want := range raw.Results {
		if got := rows[i]; got != string(bytes.TrimSpace(want)) {
			t.Errorf("row %d:\nstreamed %s\nbuffered %s", i, got, want)
		}
	}
}

// TestSweepStreamSSE pins that NDJSON is the only stream framing: a
// stream value other than 1, true or ndjson (the old SSE spelling
// included) is a 400 naming the accepted values, never a silently
// buffered sweep.
func TestSweepStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workloads":[{"name":"sphinx3","records":20000}],"schemes":["baseline"]}`
	for _, v := range []string{"sse", "0", "yes"} {
		code, b := post(t, ts, "/v1/sweep?stream="+v, body)
		if code != http.StatusBadRequest {
			t.Fatalf("stream=%s: %d %s, want 400", v, code, b)
		}
		var e errorResponse
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"` + v + `"`, "1", "true", "ndjson"} {
			if !strings.Contains(e.Error, want) {
				t.Errorf("stream=%s: error %q does not name %s", v, e.Error, want)
			}
		}
	}
	if st := stats(t, ts); st.Tiers.Computed != 0 || st.Baseline.Misses != 0 {
		t.Errorf("a refused sweep simulated: tiers %+v, baseline misses %d", st.Tiers, st.Baseline.Misses)
	}
}

// TestSweepStreamIncremental proves streaming is actually incremental: the
// first row must be readable while another job is still blocked inside the
// engine — a buffered response could never do that.
func TestSweepStreamIncremental(t *testing.T) {
	// The scheme's second invocation blocks. Which job that is depends on
	// the worker pool's interleaving; the other job's row must stream
	// first either way.
	release := make(chan struct{})
	var calls atomic.Int64
	setTestScheme(func(ctx registry.Context) (registry.Result, error) {
		if calls.Add(1) == 2 {
			<-release
		}
		return registry.Result{Stats: ctx.Baseline()}, nil
	})
	t.Cleanup(func() { setTestScheme(nil) })

	ev := prophet.New()
	_, ts := newTestServer(t, Config{Evaluator: ev})
	// Registered after the server's cleanup, so it runs first: closing
	// the server waits for the blocked handler.
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	body := `{"workloads":[{"name":"sphinx3","records":20000},{"name":"xalancbmk","records":20000}],` +
		`"schemes":["server-test"]}`
	resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first row before release: %v", sc.Err())
	}
	var first StreamRow
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Index < 0 || first.Index > 1 || first.Scheme != "server-test" {
		t.Fatalf("first streamed line %q (err %v), want the row of job 0 or 1", sc.Text(), err)
	}
	once.Do(func() { close(release) })

	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 { // the other row + trailer
		t.Fatalf("streamed %d lines, want 3", 1+len(lines))
	}
	var second StreamRow
	if err := json.Unmarshal([]byte(lines[0]), &second); err != nil || second.Index != 1-first.Index {
		t.Fatalf("second streamed line %q (err %v), want the row of job %d", lines[0], err, 1-first.Index)
	}
	trailerLine := lines[1]
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(trailerLine), &trailer); err != nil || !trailer.Done {
		t.Fatalf("trailer %q (err %v), want done", trailerLine, err)
	}
}

// TestStatsReportsFleet pins the fleet listing in /v1/stats' dispatch
// block.
func TestStatsReportsFleet(t *testing.T) {
	ev := prophet.New(prophet.WithBackends("http://w1:8373"))
	_, ts := newTestServer(t, Config{Evaluator: ev})
	st := stats(t, ts)
	if len(st.Dispatch.Peers) != 1 {
		t.Errorf("stats peers %v, want one", st.Dispatch.Peers)
	}
}
