package auditd

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"time"

	"indaas/internal/store"
	"indaas/internal/telemetry"
)

// counters is every count and latency the server keeps itself, declared once
// for both forms: the server updates its metrics in place, atomically, so
// /metrics never contends with the job-table lock, and Stats embeds their
// snapshot. Every field but StoreEvictions has a row in Stats.rows.
type counters[C, H any] struct {
	Submitted          C // jobs accepted (any path)
	Completed          C // jobs finished successfully
	Failed             C // jobs finished with an error
	Canceled           C // jobs canceled via the API or shutdown
	CacheHits          C // jobs answered from the result cache
	Coalesced          C // jobs attached to an in-flight computation
	CacheMisses        C // jobs that had to enqueue a computation
	Rejected           C // submissions refused (queue full / closing)
	Computations       C // computations actually run by workers
	BusyWorkers        C // workers currently running a computation
	Recommendations    C // placement recommendation jobs accepted
	PrivateAudits      C // private (PIA) audit jobs accepted
	PrivatePairs       C // provider pairs their computations evaluated (cache and coalescing hits evaluate none)
	IngestedRecords    C // dependency records accepted via /v1/depdb
	IngestGroups       C // commit groups: concurrent ingests fold into one per fsync pair, so ≪ requests under load
	IngestThrottled    C // ingests rejected by the admission rate limit
	WatchReaudits      C // re-audit jobs submitted by watch refreshers
	DeltaHits          C // jobs answered whole from an ancestor result: the database change missed their subjects
	DeltaPartials      C // jobs that re-audited only their dirty subjects and spliced the rest from an ancestor
	DeltaDirtySubjects C // dirty subjects totalled across delta-partial jobs
	StoreHits          C // jobs answered from the disk tier
	StoreEvictions     C // disk evictions mirrored into the memory LRU
	StoreErrors        C // persist failures (results stayed in memory)
	StoreSkippedWrites C // writes skipped while serving degraded
	JobsRecovered      C // journaled jobs re-enqueued at boot after a crash
	WorkerPanics       C // workload panics isolated to their own job

	// Latency histograms (lock-free; Observe is two atomic adds). Store
	// put/get latencies live in store.Stats, next to the data they time.
	JobDuration  H // submission → completion, every serve path
	QueueWait    H // submission → worker pickup (computed jobs)
	Compute      H // worker time inside the run closure
	IngestCommit H // ingest group commit (persist + apply + notify)
	IngestNotify H // ingest dirtying a watch → event queued
	// ResultEncode times the one JSON encode each computed result gets, and
	// ResultDecodes counts stored results decoded back into structs
	// (in-process Result/Report calls, delta planners): serving a report or
	// cache read moves neither. ResultBytes totals the bytes those reads wrote.
	ResultEncode  H
	ResultDecodes C
	ResultBytes   C
}

// metrics is the server's live counters.
type metrics = counters[atomic.Int64, telemetry.Histogram]

// Stats is a point-in-time snapshot of the service counters, exported for
// tests and operational introspection.
type Stats struct {
	counters[int64, telemetry.HistogramSnapshot]
	QueueDepth         int
	Workers            int
	CacheEntries       int
	WatchSubscribers   int   // live /v1/watch subscriptions
	WatchSubscriptions int64 // subscriptions ever registered
	WatchEvents        int64 // events queued to subscribers
	WatchDropped       int64 // events dropped on full queues (each drop evicts its slow consumer)
	WatchEvicted       int64 // subscribers evicted as slow consumers
	WatchDirtyMarks    int64 // times an ingest marked a subscription dirty

	// StoreEnabled reports whether the service runs with a persistent
	// store; the Store* fields are only meaningful when it does.
	StoreEnabled bool
	StoreTrips   int64 // times the breaker tripped into degraded mode
	Store        store.Stats

	// Degraded reports the circuit breaker's state: true while repeated
	// store-write failures have the daemon serving memory-only.
	Degraded       bool
	DegradedReason string

	// Uptime, Runtime, and Build describe the process itself for the
	// auditd_uptime_seconds / auditd_goroutines / auditd_heap_bytes /
	// auditd_gc_pause_seconds_total / auditd_build_info samples.
	Uptime  time.Duration
	Runtime telemetry.RuntimeStats
	Build   telemetry.BuildInfo
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	ws := s.watchHub.Stats()
	st := Stats{
		QueueDepth:         s.exec.QueueDepth(),
		Workers:            s.cfg.Workers,
		CacheEntries:       s.cache.Len(),
		WatchSubscribers:   ws.Subscribers,
		WatchSubscriptions: ws.Subscribed,
		WatchEvents:        ws.EventsSent,
		WatchDropped:       ws.EventsDropped,
		WatchEvicted:       ws.Evicted,
		WatchDirtyMarks:    ws.DirtyMarks,
		StoreEnabled:       s.store != nil,
		StoreTrips:         s.breaker.tripCount(),
		Uptime:             time.Since(s.began),
		Runtime:            telemetry.ReadRuntime(),
		Build:              telemetry.ReadBuild(),
	}
	if s.store != nil {
		st.Store = s.store.Stats()
	}
	st.Degraded, st.DegradedReason = s.breaker.degraded()
	// Each live field lands in its snapshot twin: same struct, same index.
	live, snap := reflect.ValueOf(&s.m).Elem(), reflect.ValueOf(&st.counters).Elem()
	for i := 0; i < live.NumField(); i++ {
		switch f := live.Field(i).Addr().Interface().(type) {
		case *atomic.Int64:
			snap.Field(i).SetInt(f.Load())
		case *telemetry.Histogram:
			snap.Field(i).Set(reflect.ValueOf(f.Snapshot()))
		}
	}
	return st
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

// MetricKind is a series' Prometheus type, as its # TYPE line spells it.
type MetricKind string

const (
	Counter   MetricKind = "counter"
	Gauge     MetricKind = "gauge"
	Histogram MetricKind = "histogram"
)

// Metric is one row of the /metrics table. Value is a number, a histogram's
// telemetry.HistogramSnapshot, or the BuildInfo auditd_build_info labels.
type Metric struct {
	Name  string
	Help  string
	Kind  MetricKind
	Value any
}

// rows is the daemon's /metrics table, one row per series in exposition
// order. The store rows follow only on a durable daemon; auditd_degraded is
// always present, so a dashboard watching an incident never sees the series
// vanish because the store flag is off.
func (s Stats) rows() []Metric {
	degraded := 0
	if s.Degraded {
		degraded = 1
	}
	rows := []Metric{
		{"auditd_build_info", "Build identity of the running binary (value is always 1).", Gauge, s.Build},
		{"auditd_uptime_seconds", "Seconds since the service started.", Gauge, s.Uptime.Seconds()},
		{"auditd_goroutines", "Goroutines in the process.", Gauge, s.Runtime.Goroutines},
		{"auditd_heap_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", Gauge, s.Runtime.HeapBytes},
		{"auditd_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", Counter, s.Runtime.GCPauseTotal.Seconds()},
		{"auditd_jobs_submitted_total", "Jobs accepted by the service.", Counter, s.Submitted},
		{"auditd_jobs_completed_total", "Jobs finished successfully.", Counter, s.Completed},
		{"auditd_jobs_failed_total", "Jobs finished with an error.", Counter, s.Failed},
		{"auditd_jobs_canceled_total", "Jobs canceled before completion.", Counter, s.Canceled},
		{"auditd_jobs_rejected_total", "Submissions refused (queue full or shutting down).", Counter, s.Rejected},
		{"auditd_cache_hits_total", "Jobs answered from the result cache.", Counter, s.CacheHits},
		{"auditd_cache_coalesced_total", "Jobs attached to an identical in-flight computation.", Counter, s.Coalesced},
		{"auditd_cache_misses_total", "Jobs that enqueued their own computation.", Counter, s.CacheMisses},
		{"auditd_computations_total", "Computations executed by the worker pool.", Counter, s.Computations},
		{"auditd_recommendations_total", "Placement recommendation jobs accepted.", Counter, s.Recommendations},
		{"auditd_private_audits_total", "Private (PIA) audit jobs accepted.", Counter, s.PrivateAudits},
		{"auditd_private_pairs_total", "Provider pairs evaluated by private-audit computations.", Counter, s.PrivatePairs},
		{"auditd_depdb_ingested_records_total", "Dependency records accepted via /v1/depdb.", Counter, s.IngestedRecords},
		{"auditd_depdb_commit_groups_total", "Ingest commit groups (one snapshot segment and fsync pair each).", Counter, s.IngestGroups},
		{"auditd_depdb_throttled_total", "Ingests rejected by the admission rate limit (429).", Counter, s.IngestThrottled},
		{"auditd_watch_subscribers", "Live /v1/watch subscriptions.", Gauge, s.WatchSubscribers},
		{"auditd_watch_subscriptions_total", "Watch subscriptions ever registered.", Counter, s.WatchSubscriptions},
		{"auditd_watch_events_total", "Events queued to watch subscribers.", Counter, s.WatchEvents},
		{"auditd_watch_dropped_events_total", "Events dropped on full subscriber queues (each drop evicts).", Counter, s.WatchDropped},
		{"auditd_watch_evicted_total", "Watch subscribers evicted as slow consumers.", Counter, s.WatchEvicted},
		{"auditd_watch_dirty_marks_total", "Times an ingest marked a watch subscription dirty.", Counter, s.WatchDirtyMarks},
		{"auditd_watch_reaudits_total", "Re-audit jobs submitted by watch refreshers.", Counter, s.WatchReaudits},
		{"auditd_delta_hits_total", "Jobs answered whole from an ancestor result (database changed, subjects untouched).", Counter, s.DeltaHits},
		{"auditd_delta_partial_total", "Jobs that re-audited only their dirty subjects and spliced the rest.", Counter, s.DeltaPartials},
		{"auditd_delta_dirty_subjects_total", "Dirty subjects re-audited across delta-partial jobs.", Counter, s.DeltaDirtySubjects},
		{"auditd_cache_hit_rate", "Fraction of jobs served without a dedicated computation.", Gauge, s.HitRate()},
		{"auditd_cache_entries", "Reports currently in the result cache.", Gauge, s.CacheEntries},
		{"auditd_queue_depth", "Computations waiting for a worker.", Gauge, s.QueueDepth},
		{"auditd_workers", "Size of the worker pool.", Gauge, s.Workers},
		{"auditd_workers_busy", "Workers currently running a computation.", Gauge, s.BusyWorkers},
		{"auditd_jobs_recovered_total", "Journaled jobs re-enqueued at boot after a crash.", Counter, s.JobsRecovered},
		{"auditd_worker_panics_total", "Workload panics isolated to their own job.", Counter, s.WorkerPanics},
		{"auditd_job_duration_seconds", "End-to-end job latency from submission to completion, all serve paths.", Histogram, s.JobDuration},
		{"auditd_job_queue_wait_seconds", "Time computations waited for a worker.", Histogram, s.QueueWait},
		{"auditd_job_compute_seconds", "Worker time spent inside run closures.", Histogram, s.Compute},
		{"auditd_ingest_commit_seconds", "Ingest group commit latency (snapshot persist, depdb apply, watch notify).", Histogram, s.IngestCommit},
		{"auditd_ingest_notify_seconds", "Latency from an ingest dirtying a watch subscription to its notification event being queued.", Histogram, s.IngestNotify},
		{"auditd_result_encode_seconds", "JSON encode time of computed results (one encode per computation; reads serve the stored bytes).", Histogram, s.ResultEncode},
		{"auditd_result_decodes_total", "Stored results decoded into structs (in-process consumers and delta planners; never the HTTP read path).", Counter, s.ResultDecodes},
		{"auditd_result_bytes_total", "Encoded result payload bytes served by the report and cache routes.", Counter, s.ResultBytes},
		{"auditd_degraded", "1 while the daemon serves memory-only after store failures.", Gauge, degraded},
	}
	if !s.StoreEnabled {
		return rows
	}
	return append(rows, []Metric{
		{"auditd_store_hits_total", "Jobs answered from the persistent store.", Counter, s.StoreHits},
		{"auditd_store_puts_total", "Entries written to the persistent store.", Counter, s.Store.Puts},
		{"auditd_store_evictions_total", "Persistent-store evictions (mirrored into the memory cache).", Counter, s.Store.Evictions},
		{"auditd_store_compactions_total", "Persistent-store segment compactions.", Counter, s.Store.Compactions},
		{"auditd_store_errors_total", "Persist failures; the results stayed in memory.", Counter, s.StoreErrors},
		{"auditd_store_skipped_writes_total", "Store writes skipped while serving degraded.", Counter, s.StoreSkippedWrites},
		{"auditd_store_breaker_trips_total", "Times repeated store failures tripped degraded mode.", Counter, s.StoreTrips},
		{"auditd_store_put_seconds", "Persistent-store Put latency, fsync included.", Histogram, s.Store.PutLatency},
		{"auditd_store_get_seconds", "Persistent-store Get latency.", Histogram, s.Store.GetLatency},
		{"auditd_store_entries", "Live entries in the persistent store.", Gauge, s.Store.Entries},
		{"auditd_store_live_bytes", "Bytes of live entries in the persistent store.", Gauge, s.Store.LiveBytes},
		{"auditd_store_file_bytes", "Persistent-store segment size on disk.", Gauge, s.Store.FileBytes},
		{"auditd_store_recovered_entries", "Entries recovered when the store was opened.", Gauge, s.Store.Recovery.Entries},
		{"auditd_store_recovery_truncated_bytes", "Torn-tail bytes dropped by the last recovery.", Gauge, s.Store.Recovery.TruncatedBytes},
		{"auditd_store_recovery_quarantined_bytes", "Mid-segment corrupt bytes quarantined by the last recovery.", Gauge, s.Store.Recovery.QuarantinedBytes},
	}...)
}

// writeMetrics renders rows in the Prometheus text exposition format.
func writeMetrics(w io.Writer, rows []Metric) {
	for _, m := range rows {
		if h, ok := m.Value.(telemetry.HistogramSnapshot); ok {
			h.WritePrometheus(w, m.Name, m.Help)
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", m.Name, m.Help, m.Name, m.Kind, m.Name)
		if b, ok := m.Value.(telemetry.BuildInfo); ok {
			fmt.Fprintf(w, "{go_version=%q,revision=%q} 1\n", b.GoVersion, b.Revision)
		} else {
			fmt.Fprintf(w, " %v\n", m.Value)
		}
	}
}
