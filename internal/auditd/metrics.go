package auditd

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"indaas/internal/store"
	"indaas/internal/telemetry"
)

// metrics holds the service counters, updated atomically so the /metrics
// handler never contends with the job table lock.
type metrics struct {
	submitted    atomic.Int64 // jobs accepted (any path)
	completed    atomic.Int64 // jobs finished successfully
	failed       atomic.Int64 // jobs finished with an error
	canceled     atomic.Int64 // jobs canceled via the API or shutdown
	cacheHits    atomic.Int64 // jobs answered from the result cache
	coalesced    atomic.Int64 // jobs attached to an in-flight computation
	cacheMisses  atomic.Int64 // jobs that had to enqueue a computation
	rejected     atomic.Int64 // submissions refused (queue full / closing)
	computations atomic.Int64 // computations actually run by workers
	busyWorkers  atomic.Int64 // workers currently running a computation

	recommendations atomic.Int64 // placement recommendation jobs accepted
	privateAudits   atomic.Int64 // private (PIA) audit jobs accepted
	privatePairs    atomic.Int64 // provider pairs evaluated by private-audit computations
	ingestedRecords atomic.Int64 // dependency records accepted via /v1/depdb
	ingestGroups    atomic.Int64 // ingest commit groups (one segment + pointer fsync pair each)
	ingestThrottled atomic.Int64 // ingests rejected by the rate limiter (429)
	watchReaudits   atomic.Int64 // re-audit jobs submitted by watch refreshers

	deltaHits     atomic.Int64 // jobs answered whole from an ancestor result
	deltaPartials atomic.Int64 // jobs that recomputed only their dirty subjects
	deltaDirty    atomic.Int64 // dirty subjects across all delta-partial jobs

	storeHits      atomic.Int64 // jobs answered from the disk store
	storeEvictions atomic.Int64 // disk evictions mirrored into the memory LRU
	storeErrors    atomic.Int64 // persist/encode failures (results kept in memory)
	storeSkipped   atomic.Int64 // writes skipped while serving degraded

	jobsRecovered atomic.Int64 // journaled jobs re-enqueued at boot
	workerPanics  atomic.Int64 // workload panics isolated to their own job
	resultBytes   atomic.Int64 // encoded result payload bytes served (report and cache routes)
	resultDecodes atomic.Int64 // stored results decoded into structs (Result/Report, delta planners)

	// Latency histograms (lock-free; Observe is two atomic adds). Store
	// put/get latencies live in store.Stats, next to the data they time.
	jobDuration  telemetry.Histogram // submission → completion, every serve path
	queueWait    telemetry.Histogram // submission → worker pickup (computed jobs)
	compute      telemetry.Histogram // worker time inside the run closure
	ingestCommit telemetry.Histogram // ingest group commit (persist + apply + notify)
	ingestNotify telemetry.Histogram // ingest dirtying a watch → event queued
	resultEncode telemetry.Histogram // the one JSON encode of each computed result, at completion
}

// Stats is a point-in-time snapshot of the service counters, exported for
// tests and operational introspection.
type Stats struct {
	Submitted    int64
	Completed    int64
	Failed       int64
	Canceled     int64
	CacheHits    int64
	Coalesced    int64
	CacheMisses  int64
	Rejected     int64
	Computations int64
	BusyWorkers  int64
	QueueDepth   int
	Workers      int
	CacheEntries int

	Recommendations int64
	// PrivateAudits counts accepted private (PIA) audit jobs;
	// PrivatePairs totals the provider pairs their computations evaluated
	// (cache and coalescing hits evaluate none).
	PrivateAudits   int64
	PrivatePairs    int64
	IngestedRecords int64
	// IngestGroups counts commit groups: concurrent ingests fold into one
	// group per fsync pair, so IngestGroups ≪ ingest requests under load.
	// IngestThrottled counts ingests rejected by the admission rate limit.
	IngestGroups    int64
	IngestThrottled int64

	// Watch* describe the /v1/watch subsystem: live subscribers, lifetime
	// subscriptions, events queued to subscribers, events dropped (each drop
	// evicts its slow consumer), dirty marks from ingests, and re-audit jobs
	// the refreshers submitted.
	WatchSubscribers   int
	WatchSubscriptions int64
	WatchEvents        int64
	WatchDropped       int64
	WatchEvicted       int64
	WatchDirtyMarks    int64
	WatchReaudits      int64

	// DeltaHits counts jobs answered entirely from an ancestor result after
	// a database change that missed their subjects; DeltaPartials counts
	// jobs that re-audited only their dirty subjects and spliced the rest;
	// DeltaDirtySubjects totals the dirty subjects across partial jobs.
	DeltaHits          int64
	DeltaPartials      int64
	DeltaDirtySubjects int64

	// StoreEnabled reports whether the service runs with a persistent
	// store; the Store* fields below are only meaningful when it does.
	StoreEnabled       bool
	StoreHits          int64 // jobs answered from the disk tier
	StoreEvictions     int64 // disk evictions mirrored into the memory LRU
	StoreErrors        int64 // persist failures (results stayed in memory)
	StoreSkippedWrites int64 // writes skipped while serving degraded
	StoreTrips         int64 // times the breaker tripped into degraded mode
	Store              store.Stats

	// Degraded reports the circuit breaker's state: true while repeated
	// store-write failures have the daemon serving memory-only.
	Degraded       bool
	DegradedReason string

	// JobsRecovered counts journaled jobs re-enqueued at boot after a crash;
	// WorkerPanics counts workload panics isolated to their own job.
	JobsRecovered int64
	WorkerPanics  int64

	// Latency distributions (see the metrics struct for phase boundaries).
	JobDuration  telemetry.HistogramSnapshot
	QueueWait    telemetry.HistogramSnapshot
	Compute      telemetry.HistogramSnapshot
	IngestCommit telemetry.HistogramSnapshot
	IngestNotify telemetry.HistogramSnapshot
	// ResultEncode times the one JSON encode each computed result gets, and
	// ResultDecodes counts stored results decoded back into structs
	// (in-process Result/Report calls, delta planners): serving a report or
	// cache read moves neither. ResultBytes totals the bytes those reads wrote.
	ResultEncode  telemetry.HistogramSnapshot
	ResultDecodes int64
	ResultBytes   int64

	// Uptime, Runtime, and Build describe the process itself for the
	// auditd_uptime_seconds / auditd_goroutines / auditd_heap_bytes /
	// auditd_gc_pause_seconds_total / auditd_build_info samples.
	Uptime  time.Duration
	Runtime telemetry.RuntimeStats
	Build   telemetry.BuildInfo
}

// HitRate is the fraction of accepted jobs that did not need their own
// computation (memory cache hits, disk store hits, delta lineage hits, and
// in-flight coalescing).
func (s Stats) HitRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.CacheHits+s.StoreHits+s.DeltaHits+s.Coalesced) / float64(s.Submitted)
}

// render writes the counters in the Prometheus text exposition format.
func (s Stats) render(w io.Writer) {
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fcounter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	hist := func(name, help string, h telemetry.HistogramSnapshot) {
		h.WritePrometheus(w, name, help)
	}
	fmt.Fprintf(w, "# HELP auditd_build_info Build identity of the running binary (value is always 1).\n"+
		"# TYPE auditd_build_info gauge\nauditd_build_info{go_version=%q,revision=%q} 1\n",
		s.Build.GoVersion, s.Build.Revision)
	gauge("auditd_uptime_seconds", "Seconds since the service started.", strconv.FormatFloat(s.Uptime.Seconds(), 'g', -1, 64))
	gauge("auditd_goroutines", "Goroutines in the process.", s.Runtime.Goroutines)
	gauge("auditd_heap_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", s.Runtime.HeapBytes)
	fcounter("auditd_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", s.Runtime.GCPauseTotal.Seconds())
	counter("auditd_jobs_submitted_total", "Jobs accepted by the service.", s.Submitted)
	counter("auditd_jobs_completed_total", "Jobs finished successfully.", s.Completed)
	counter("auditd_jobs_failed_total", "Jobs finished with an error.", s.Failed)
	counter("auditd_jobs_canceled_total", "Jobs canceled before completion.", s.Canceled)
	counter("auditd_jobs_rejected_total", "Submissions refused (queue full or shutting down).", s.Rejected)
	counter("auditd_cache_hits_total", "Jobs answered from the result cache.", s.CacheHits)
	counter("auditd_cache_coalesced_total", "Jobs attached to an identical in-flight computation.", s.Coalesced)
	counter("auditd_cache_misses_total", "Jobs that enqueued their own computation.", s.CacheMisses)
	counter("auditd_computations_total", "Computations executed by the worker pool.", s.Computations)
	counter("auditd_recommendations_total", "Placement recommendation jobs accepted.", s.Recommendations)
	counter("auditd_private_audits_total", "Private (PIA) audit jobs accepted.", s.PrivateAudits)
	counter("auditd_private_pairs_total", "Provider pairs evaluated by private-audit computations.", s.PrivatePairs)
	counter("auditd_depdb_ingested_records_total", "Dependency records accepted via /v1/depdb.", s.IngestedRecords)
	counter("auditd_depdb_commit_groups_total", "Ingest commit groups (one snapshot segment and fsync pair each).", s.IngestGroups)
	counter("auditd_depdb_throttled_total", "Ingests rejected by the admission rate limit (429).", s.IngestThrottled)
	gauge("auditd_watch_subscribers", "Live /v1/watch subscriptions.", s.WatchSubscribers)
	counter("auditd_watch_subscriptions_total", "Watch subscriptions ever registered.", s.WatchSubscriptions)
	counter("auditd_watch_events_total", "Events queued to watch subscribers.", s.WatchEvents)
	counter("auditd_watch_dropped_events_total", "Events dropped on full subscriber queues (each drop evicts).", s.WatchDropped)
	counter("auditd_watch_evicted_total", "Watch subscribers evicted as slow consumers.", s.WatchEvicted)
	counter("auditd_watch_dirty_marks_total", "Times an ingest marked a watch subscription dirty.", s.WatchDirtyMarks)
	counter("auditd_watch_reaudits_total", "Re-audit jobs submitted by watch refreshers.", s.WatchReaudits)
	counter("auditd_delta_hits_total", "Jobs answered whole from an ancestor result (database changed, subjects untouched).", s.DeltaHits)
	counter("auditd_delta_partial_total", "Jobs that re-audited only their dirty subjects and spliced the rest.", s.DeltaPartials)
	counter("auditd_delta_dirty_subjects_total", "Dirty subjects re-audited across delta-partial jobs.", s.DeltaDirtySubjects)
	gauge("auditd_cache_hit_rate", "Fraction of jobs served without a dedicated computation.", s.HitRate())
	gauge("auditd_cache_entries", "Reports currently in the result cache.", s.CacheEntries)
	gauge("auditd_queue_depth", "Computations waiting for a worker.", s.QueueDepth)
	gauge("auditd_workers", "Size of the worker pool.", s.Workers)
	gauge("auditd_workers_busy", "Workers currently running a computation.", s.BusyWorkers)
	counter("auditd_jobs_recovered_total", "Journaled jobs re-enqueued at boot after a crash.", s.JobsRecovered)
	counter("auditd_worker_panics_total", "Workload panics isolated to their own job.", s.WorkerPanics)
	hist("auditd_job_duration_seconds", "End-to-end job latency from submission to completion, all serve paths.", s.JobDuration)
	hist("auditd_job_queue_wait_seconds", "Time computations waited for a worker.", s.QueueWait)
	hist("auditd_job_compute_seconds", "Worker time spent inside run closures.", s.Compute)
	hist("auditd_ingest_commit_seconds", "Ingest group commit latency (snapshot persist, depdb apply, watch notify).", s.IngestCommit)
	hist("auditd_ingest_notify_seconds", "Latency from an ingest dirtying a watch subscription to its notification event being queued.", s.IngestNotify)
	hist("auditd_result_encode_seconds", "JSON encode time of computed results (one encode per computation; reads serve the stored bytes).", s.ResultEncode)
	counter("auditd_result_decodes_total", "Stored results decoded into structs (in-process consumers and delta planners; never the HTTP read path).", s.ResultDecodes)
	counter("auditd_result_bytes_total", "Encoded result payload bytes served by the report and cache routes.", s.ResultBytes)
	// The degraded gauge renders unconditionally: a dashboard watching an
	// incident must never see the series vanish because the store flag is
	// off (memory-only daemons legitimately report 0 forever).
	degraded := 0
	if s.Degraded {
		degraded = 1
	}
	gauge("auditd_degraded", "1 while the daemon serves memory-only after store failures.", degraded)
	if s.StoreEnabled {
		counter("auditd_store_hits_total", "Jobs answered from the persistent store.", s.StoreHits)
		counter("auditd_store_puts_total", "Entries written to the persistent store.", s.Store.Puts)
		counter("auditd_store_evictions_total", "Persistent-store evictions (mirrored into the memory cache).", s.Store.Evictions)
		counter("auditd_store_compactions_total", "Persistent-store segment compactions.", s.Store.Compactions)
		counter("auditd_store_errors_total", "Persist failures; the results stayed in memory.", s.StoreErrors)
		counter("auditd_store_skipped_writes_total", "Store writes skipped while serving degraded.", s.StoreSkippedWrites)
		counter("auditd_store_breaker_trips_total", "Times repeated store failures tripped degraded mode.", s.StoreTrips)
		hist("auditd_store_put_seconds", "Persistent-store Put latency, fsync included.", s.Store.PutLatency)
		hist("auditd_store_get_seconds", "Persistent-store Get latency.", s.Store.GetLatency)
		gauge("auditd_store_entries", "Live entries in the persistent store.", s.Store.Entries)
		gauge("auditd_store_live_bytes", "Bytes of live entries in the persistent store.", s.Store.LiveBytes)
		gauge("auditd_store_file_bytes", "Persistent-store segment size on disk.", s.Store.FileBytes)
		gauge("auditd_store_recovered_entries", "Entries recovered when the store was opened.", s.Store.Recovery.Entries)
		gauge("auditd_store_recovery_truncated_bytes", "Torn-tail bytes dropped by the last recovery.", s.Store.Recovery.TruncatedBytes)
		gauge("auditd_store_recovery_quarantined_bytes", "Mid-segment corrupt bytes quarantined by the last recovery.", s.Store.Recovery.QuarantinedBytes)
	}
}
