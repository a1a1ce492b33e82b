// Command prophetd serves the evaluation engine over HTTP/JSON: single
// runs, concurrent sweeps (sync or async through a bounded job queue), and
// the Figure 5 profile→optimize→run loop as stateful session resources.
// Results are cached serving-side (LRU + TTL) and duplicate in-flight
// requests coalesce onto one simulation; GET /v1/stats exposes the
// counters. See the "Running the service" section of README.md for the
// endpoint table and example requests.
//
// Usage:
//
//	prophetd                          # serve on :8373 with default engine
//	prophetd -addr :9000 -workers 8
//	prophetd -cache-ttl 1h -queue 128
//	prophetd -store results.prst              # durable result store
//	prophetd -peers http://w1:8373,http://w2:8373   # coordinate a fleet
//	prophetd -scheduler least-loaded -peer-ttl 15s  # load-aware coordinator
//	prophetd -join http://coord:8373 -advertise http://w3:8373  # elastic worker
//	prophetd -version
//
// With -store the daemon keeps a durable, content-addressed result store on
// disk under the in-memory cache: every completed evaluation is appended to
// the store, and a restarted daemon answers repeated requests from disk
// without simulating anything (byte-identical responses, zero engine runs).
// The store is namespaced by an engine fingerprint — schema generation,
// build version, and simulation options — so results from a different
// build or configuration self-invalidate (the file is reset with a logged
// notice). -store-max-bytes bounds the file; over the cap, the least
// recently used entries are compacted away.
//
// With -peers the daemon becomes a fleet coordinator: incoming sweeps are
// chunked and granted across the peer daemons by the -scheduler strategy
// (workload+scheme hash with work stealing, or least-loaded driven by
// GET /v1/health probes), with retries, jittered backoff, and failover to
// the local engine, and the merged results are byte-identical to a
// standalone run whatever the strategy. Peers execute batches on their own
// engines only — fan-out never cascades — so a peer list must name other
// daemons, not the daemon itself.
//
// The fleet is elastic: workers POST /v1/peers to join a coordinator at
// runtime and are expired after -peer-ttl without a heartbeat. A worker
// started with -join (plus -advertise, its own base URL as the coordinator
// reaches it) heartbeats each listed coordinator every -join-interval and
// sends a DELETE /v1/peers drain on graceful shutdown, so workers can be
// added or removed mid-run without restarting the coordinator.
//
// For observability the daemon serves the standard net/http/pprof profiles
// under /debug/pprof/*, so `curl -o cpu.pprof 'localhost:8373/debug/pprof/profile?seconds=30'`
// captures a CPU profile of whatever the daemon is serving.
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops, open
// connections drain, queued jobs are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prophet"

	"prophet/internal/cliutil"
	"prophet/internal/resultstore"
	"prophet/internal/server"
)

// Connection limits for the listener. A client gets readHeaderTimeout to
// send its request headers, and an idle keep-alive connection is closed
// after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8373", "listen address")
	workers := flag.Int("workers", 0, "sweep worker pool (0 = all CPUs)")
	elAcc := flag.Float64("el-acc", 0.15, "EL_ACC insertion threshold (Equation 1)")
	prioBits := flag.Int("priority-bits", 2, "replacement priority bits n (Equation 2)")
	mvbCand := flag.Int("mvb-candidates", 1, "Multi-path Victim Buffer candidates per lookup")
	learnL := flag.Int("learn-l", 4, "Equation 4 designer parameter L")
	channels := flag.Int("channels", 1, "DRAM channels")
	cacheEntries := flag.Int("cache-entries", 256, "result cache capacity (-1 = unbounded)")
	cacheTTL := flag.Duration("cache-ttl", 10*time.Minute, "result cache TTL (-1s = never expire)")
	jobWorkers := flag.Int("job-workers", 2, "async job pool size")
	queueDepth := flag.Int("queue", 64, "async job queue bound")
	jobRetention := flag.Int("job-retention", 256, "finished jobs kept for polling before eviction")
	storePath := flag.String("store", "", "durable result store file (empty = no disk tier)")
	storeMax := flag.Int64("store-max-bytes", 256<<20, "result store size cap before LRU compaction (0 = unbounded)")
	peers := flag.String("peers", "", "comma-separated peer prophetd base URLs to shard sweeps across (coordinator mode)")
	peerRetries := flag.Int("peer-retries", 2, "batch attempts per peer before failing over to the local engine")
	scheduler := flag.String("scheduler", "hash", "fleet scheduling strategy: "+strings.Join(prophet.Schedulers(), ", "))
	peerTTL := flag.Duration("peer-ttl", 15*time.Second, "drain dynamic peers after this long without a heartbeat")
	join := flag.String("join", "", "comma-separated coordinator base URLs to join as a worker (requires -advertise)")
	advertise := flag.String("advertise", "", "this daemon's base URL as coordinators reach it (e.g. http://host:8373)")
	joinInterval := flag.Duration("join-interval", 5*time.Second, "heartbeat interval for -join (keep well inside the coordinator's -peer-ttl)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("prophetd", prophet.Version())
		return
	}

	if !prophet.ValidScheduler(*scheduler) {
		log.Fatalf("unknown -scheduler %q (choose from %s)", *scheduler, strings.Join(prophet.Schedulers(), ", "))
	}
	joinList := cliutil.SplitList(*join)
	if len(joinList) > 0 && *advertise == "" {
		log.Fatal("-join requires -advertise (the URL coordinators dial back)")
	}

	evOpts := []prophet.Option{
		prophet.WithWorkers(*workers),
		prophet.WithELAcc(*elAcc),
		prophet.WithPriorityBits(*prioBits),
		prophet.WithMVBCandidates(*mvbCand),
		prophet.WithLearningL(*learnL),
		prophet.WithDRAMChannels(*channels),
	}
	peerList := cliutil.SplitList(*peers)
	if len(peerList) > 0 {
		evOpts = append(evOpts, prophet.WithBackends(peerList...))
	}
	evOpts = append(evOpts,
		prophet.WithBackendRetries(*peerRetries),
		prophet.WithScheduler(*scheduler),
	)
	ev := prophet.New(evOpts...)
	var store *resultstore.Store
	if *storePath != "" {
		var err error
		store, err = resultstore.Open(*storePath, resultstore.Options{
			Fingerprint: ev.StoreFingerprint(),
			MaxBytes:    *storeMax,
			// A fingerprint mismatch at startup means the stored results
			// were computed by a different engine; keeping them would serve
			// stale bytes, so the daemon starts over on a fresh file.
			ResetOnMismatch: true,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatalf("open result store: %v", err)
		}
		defer store.Close()
		ss := store.Stats()
		log.Printf("result store %s: recovered %d entries (%d bytes, %d corrupt skipped, %d resets)",
			*storePath, ss.Entries, ss.Bytes, ss.CorruptSkipped, ss.Resets)
		ev.UseResultStore(store)
	}
	srv := server.New(server.Config{
		Evaluator:    ev,
		CacheEntries: *cacheEntries,
		CacheTTL:     *cacheTTL,
		JobWorkers:   *jobWorkers,
		QueueDepth:   *queueDepth,
		JobRetention: *jobRetention,
		Store:        store,
		PeerTTL:      *peerTTL,
		Logf:         log.Printf,
	})
	// No WriteTimeout: streamed sweeps and /debug/pprof/profile?seconds=N
	// hold a response open for as long as the work or capture lasts.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("prophetd %s listening on %s (%d sweep workers, %d job workers, queue %d, scheduler %s)",
		prophet.Version(), *addr, ev.Workers(), *jobWorkers, *queueDepth, ev.SchedulerName())
	if len(peerList) > 0 {
		log.Printf("coordinating sweeps across %d peers: %s (peer ttl %s)", len(peerList), strings.Join(peerList, ", "), *peerTTL)
	}
	if len(joinList) > 0 {
		log.Printf("joining %d coordinators as %s (heartbeat every %s): %s",
			len(joinList), *advertise, *joinInterval, strings.Join(joinList, ", "))
		go heartbeatLoop(ctx, joinList, *advertise, *joinInterval)
	}

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (draining up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain from every coordinator first so no new chunks are granted to a
	// daemon that is about to stop serving them.
	leaveFleet(shutdownCtx, joinList, *advertise)
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("job drain: %v", err)
	}
	log.Printf("bye")
}

// heartbeatLoop keeps this daemon registered with each coordinator: an
// immediate join POST, then one per interval. Failures are logged and
// retried on the next beat — a coordinator restart just re-learns the
// worker within one interval.
func heartbeatLoop(ctx context.Context, coordinators []string, advertise string, interval time.Duration) {
	client := &http.Client{Timeout: interval}
	beat := func() {
		for _, c := range coordinators {
			if err := postJoin(ctx, client, c, advertise); err != nil && ctx.Err() == nil {
				log.Printf("heartbeat to %s: %v", c, err)
			}
		}
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}

// postJoin sends one POST /v1/peers registration/heartbeat.
func postJoin(ctx context.Context, client *http.Client, coordinator, advertise string) error {
	body := fmt.Sprintf(`{"url":%q}`, advertise)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordinator, "/")+"/v1/peers", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// leaveFleet sends a best-effort DELETE /v1/peers drain to each coordinator
// so this daemon stops receiving chunks before its listener closes.
func leaveFleet(ctx context.Context, coordinators []string, advertise string) {
	if len(coordinators) == 0 {
		return
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, c := range coordinators {
		u := strings.TrimRight(c, "/") + "/v1/peers?url=" + url.QueryEscape(advertise)
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			log.Printf("drain from %s: %v", c, err)
			continue
		}
		resp.Body.Close()
		log.Printf("drained from coordinator %s", c)
	}
}
