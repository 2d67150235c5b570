package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/cluster"
	"indaas/internal/depdb"
	"indaas/internal/faultinject"
	"indaas/internal/store"
	"indaas/internal/telemetry"
)

// cmdServe runs the always-on audit service (§5 as a daemon): an HTTP/JSON
// API over a bounded worker pool with a content-addressed result cache.
// With -data-dir the service is durable: completed results and ingested
// DepDB snapshots are written through to a crash-safe disk store, and a
// restarted daemon serves them again without recomputation.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7080", "listen address")
	depsPath := fs.String("deps", "", "Table 1 XML file to preload (optional; requests may inline records)")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	queue := fs.Int("queue", 0, "max queued computations (0 = default 128)")
	cacheEntries := fs.Int("cache", 0, "in-memory result tier entries (0 = default 512; negative disables it — without -data-dir finished reports then answer 410)")
	timeout := fs.Duration("timeout", 0, "default per-job timeout (0 = none)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight jobs")
	dataDir := fs.String("data-dir", "", "persistent store directory (empty = memory-only service)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "persisted result budget in bytes (0 = default 256 MiB, negative = unlimited)")
	storeMaxAge := fs.Duration("store-max-age", 0, "evict persisted results older than this (0 = keep forever)")
	storeGCInterval := fs.Duration("store-gc-interval", 5*time.Minute, "background store GC period enforcing -store-max-age/-store-max-bytes on an idle daemon (0 disables)")
	storeFailThreshold := fs.Int("store-failure-threshold", 0, "consecutive store write failures before degrading to memory-only serving (0 = default 3)")
	storeRetryInterval := fs.Duration("store-retry-interval", 0, "how often a degraded daemon probes the store to restore durable mode (0 = default 15s)")
	chaosSpec := fs.String("chaos", "", "fault injection spec for resilience testing, e.g. 'delay=3s,enospc=2:2' (see internal/faultinject)")
	ingestRate := fs.Float64("ingest-rate", 0, "admission cap on /v1/depdb in records/second; excess ingests get 429 + Retry-After (0 = unlimited)")
	ingestBurst := fs.Float64("ingest-burst", 0, "ingest token bucket depth in records (0 = one second of -ingest-rate)")
	watchBuffer := fs.Int("watch-buffer", 0, "per-subscriber watch event queue; overflowing subscribers are evicted (0 = default 16)")
	peersFlag := fs.String("peers", "", "comma-separated peer addresses to form a cluster with (e.g. 'http://10.0.0.2:7080,http://10.0.0.3:7080'; empty = single node)")
	advertise := fs.String("advertise", "", "address peers reach this node at (default: the -listen address)")
	clusterPoll := fs.Duration("cluster-poll", 2*time.Second, "peer health poll interval when -peers is set")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error (debug includes /metrics and /healthz scrapes)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	debugAddr := fs.String("debug-addr", "", "listen address for the pprof debug server (empty = disabled); serves /debug/pprof/ only, keep it private")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	chaos, err := faultinject.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}
	if *chaosSpec != "" {
		log.Warn("CHAOS MODE: injecting faults", "spec", *chaosSpec)
	}
	var db *depdb.DB
	if *depsPath != "" {
		var err error
		if db, err = loadDepsXML(*depsPath); err != nil {
			return err
		}
	}
	var st *store.Store
	if *dataDir != "" {
		opts := store.Options{Dir: *dataDir, MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge}
		if chaos.FS != nil {
			opts.OpenFile = func(name string, flag int, perm os.FileMode) (store.File, error) {
				return chaos.FS.OpenFile(name, flag, perm)
			}
		}
		var err error
		st, err = store.Open(opts)
		if err != nil {
			return err
		}
		defer st.Close()
		if rec := st.Recovery(); rec.TruncatedBytes > 0 {
			log.Warn("store recovery dropped a torn tail",
				"truncated_bytes", rec.TruncatedBytes, "entries_intact", rec.Entries)
		}
		if rec := st.Recovery(); rec.QuarantinedBytes > 0 {
			log.Warn("store recovery quarantined corrupt bytes; intact entries kept",
				"quarantined_bytes", rec.QuarantinedBytes, "ranges", rec.QuarantinedRanges)
		}
		restored, err := auditd.RestoreDB(st)
		if err != nil {
			return fmt.Errorf("restoring persisted DepDB snapshot: %w", err)
		}
		if restored != nil {
			// The persisted snapshot holds every record the daemon served
			// when it last ingested — a superset of any -deps preload from
			// that era — so it wins over the preload to keep fingerprints
			// stable across restarts.
			if db != nil {
				log.Info("persisted DepDB snapshot supersedes -deps preload", "records", restored.Len())
			}
			db = restored
		}
	}
	cfg := auditd.Config{
		Workers:               *workers,
		QueueDepth:            *queue,
		CacheEntries:          *cacheEntries,
		DB:                    db,
		DefaultTimeout:        *timeout,
		Store:                 st,
		StoreFailureThreshold: *storeFailThreshold,
		StoreRetryInterval:    *storeRetryInterval,
		RunHook:               chaos.Hook(),
		IngestRate:            *ingestRate,
		IngestBurst:           *ingestBurst,
		WatchBuffer:           *watchBuffer,
	}
	// With -peers, the cluster node is the service's one cluster seam: it
	// routes workloads to their hash owners, probes the owner's cache behind
	// memory and disk, pushes ingests fleet-wide, adds its series to /metrics,
	// and names the peers whose forwarded/replicated headers are honoured.
	var node *cluster.Node
	if *peersFlag != "" {
		self := *advertise
		if self == "" {
			self = *listen
		}
		var peers []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		node = cluster.New(cluster.Config{Self: self, Peers: peers, PollInterval: *clusterPoll})
		cfg.Cluster = node
		log.Info("clustering enabled", "self", self, "peers", len(peers))
	}
	svc := auditd.New(cfg)
	if node != nil {
		node.Start()
		defer node.Stop()
	}
	// Without the ticker, size/age eviction only runs inside store writes,
	// so an idle daemon would never enforce -store-max-age.
	stopGC := svc.StartStoreGC(*storeGCInterval)
	defer stopGC()
	// Re-enqueue journaled jobs that a previous process accepted but never
	// finished — before the listener opens, so a client polling a recovered
	// job id never sees "unknown job" from the new process.
	if st != nil {
		if n, err := svc.RecoverJobs(); err != nil {
			return fmt.Errorf("recovering journaled jobs: %w", err)
		} else if n > 0 {
			log.Info("re-enqueued journaled job(s) from a previous run", "jobs", n)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: telemetry.LogRequests(log, svc.Handler()),
		// Slow-loris protection. No WriteTimeout: status long-polls hold the
		// response open for up to a minute by design.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// The pprof server binds its own (private) address rather than the API
	// one: profiling endpoints expose heap contents and must never be
	// reachable wherever the audit API is.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer debugSrv.Close()
		go debugSrv.Serve(dln)
		log.Info("pprof debug server listening", "addr", dln.Addr().String())
	}
	fields := []any{"addr", "http://" + ln.Addr().String()}
	if db != nil {
		fields = append(fields, "preloaded_records", db.Len())
	}
	if st != nil {
		fields = append(fields, "durable", true, "stored_entries", st.Len())
	}
	log.Info("indaas audit service listening", fields...)
	// Keep the plain stdout line: scripts (and humans) grep for it.
	fmt.Printf("indaas audit service on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
	}
	log.Info("shutting down; draining in-flight jobs", "grace", grace.String())
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	httpSrv.Shutdown(ctx)
	return svc.Shutdown(ctx)
}
