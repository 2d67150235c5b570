package main

// metricDef names one metric with its unit and direction, as BENCHMARK.json
// lists it. Every run of every workload reports every metric of the list it
// was asked for (end-to-end with -trace 0, per-layer with -trace 1); a
// per-layer metric of a layer the workload never enters reads 0.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The end-to-end metrics. Each is defined on every workload; README.md has
// the per-workload meaning of "op" and "op2".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op2_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// The per-layer metrics, grouped by the package they observe.
var perLayer = []metricDef{
	// The tails of the two operations: informational, because on a shared
	// two-CPU host their run-to-run spread exceeds a tenth (README.md).
	{"op_p90_ms", "ms", "lower"},
	{"op2_p90_ms", "ms", "lower"},
	// The ladder: rung medians and the self times between them.
	{"ladder.r0_client_ms", "ms", "lower"},
	{"ladder.r1_handler_ms", "ms", "lower"},
	{"ladder.r2_server_ms", "ms", "lower"},
	{"ladder.r3_engine_ms", "ms", "lower"},
	{"auditd.client.self_ms", "ms", "lower"},
	{"auditd.http.self_ms", "ms", "lower"},
	{"auditd.self_ms", "ms", "lower"},
	{"sia.self_ms", "ms", "lower"},
	{"trace.ladder_gap_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// R4: the engine's parts and the report codec, called individually.
	{"sia.build_graph_ms", "ms", "lower"},
	{"sia.audit_ms", "ms", "lower"},
	{"riskgroup.minimal_rgs_ms", "ms", "lower"},
	{"riskgroup.sampling_ms", "ms", "lower"},
	{"riskgroup.rounds_per_s", "1/s", "higher"},
	{"riskgroup.rgs_found", "count", "higher"},
	{"ranking.rank_ms", "ms", "lower"},
	{"faultgraph.nodes", "count", "lower"},
	{"faultgraph.basic_events", "count", "lower"},
	{"faultgraph.evaluator_flip_ns", "ns", "lower"},
	{"report.encode_ms", "ms", "lower"},
	{"report.decode_ms", "ms", "lower"},
	{"report.bytes", "B", "lower"},
	// auditd: hit paths, queueing and the provenance counts of the timed run.
	{"auditd.queue_wait_ms", "ms", "lower"},
	{"auditd.submit_hit_us", "us", "lower"},
	{"auditd.submit_hit_allocs", "count", "lower"},
	{"auditd.submit_disk_hit_us", "us", "lower"},
	{"auditd.computations_per_op", "ratio", "lower"},
	{"auditd.memory_hits", "count", "higher"},
	{"auditd.disk_hits", "count", "higher"},
	{"auditd.coalesced", "count", "lower"},
	{"auditd.rejected", "count", "lower"},
	// store and depdb: the write side and the disk tier.
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.recover_ms", "ms", "lower"},
	{"store.bytes_per_result", "B", "lower"},
	{"store.bytes_per_record", "B", "lower"},
	{"depdb.put_us", "us", "lower"},
	{"depdb.snapshot_us", "us", "lower"},
	{"depdb.diff_us", "us", "lower"},
	{"auditd.ingest_us", "us", "lower"},
	{"auditd.ingest_commit_p50_ms", "ms", "lower"},
	{"auditd.records_per_commit_group", "count", "higher"},
	{"auditd.ingest_records_per_s", "1/s", "higher"},
	// the ingest → watch pipeline.
	{"sia.dirty_deployments_us", "us", "lower"},
	{"watch.notify_us", "us", "lower"},
	{"auditd.ingest_notify_p50_ms", "ms", "lower"},
	{"auditd.sse_delivery_ms", "ms", "lower"},
	{"auditd.incremental_share", "ratio", "higher"},
	{"watch.events_dropped", "count", "lower"},
	// the load generator's own validity.
	{"agentsim.late_p99_ms", "ms", "lower"},
	{"agentsim.batches", "count", "higher"},
	{"agentsim.records", "count", "higher"},
	// the process.
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()
