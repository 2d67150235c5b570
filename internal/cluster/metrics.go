package cluster

import (
	"sync/atomic"

	"indaas/internal/auditd"
)

// metrics counts the cluster layer's own traffic; Node.Metrics puts it on the
// daemon's /metrics page, after the core auditd series.
type metrics struct {
	forwards            atomic.Int64 // workloads routed to a peer that owns their content address
	forwardFailures     atomic.Int64 // forwards that could not reach the owner (the workload then ran locally)
	forwardMismatches   atomic.Int64 // forwards and sub-audits whose owner derived another content address or refused them (then run on this node)
	fanouts             atomic.Int64 // many-deployment audits split across the fleet
	fanoutSubaudits     atomic.Int64 // the single-deployment sub-audits the fan-outs spawned
	replicatedRecords   atomic.Int64 // ingested records pushed to peers (records × peers)
	replicationFailures atomic.Int64 // peers a push could not reach
	peerCacheHits       atomic.Int64 // results served out of a peer's cache through the peer result tier
}

// Metrics returns the cluster's rows of the /metrics table. The two peer
// gauges are point-in-time readings of the health poller.
func (n *Node) Metrics() []auditd.Metric {
	return []auditd.Metric{
		{Name: "auditd_cluster_peers", Help: "Configured cluster peers (excluding this node).", Kind: auditd.Gauge, Value: len(n.cfg.Peers)},
		{Name: "auditd_cluster_peers_healthy", Help: "Peers whose last health poll succeeded.", Kind: auditd.Gauge, Value: n.healthyPeers()},
		{Name: "auditd_cluster_forwards_total", Help: "Workloads forwarded to their hash owner.", Kind: auditd.Counter, Value: n.m.forwards.Load()},
		{Name: "auditd_cluster_forward_failures_total", Help: "Forwards that failed over to local compute.", Kind: auditd.Counter, Value: n.m.forwardFailures.Load()},
		{Name: "auditd_cluster_forward_mismatches_total", Help: "Forwards and fan-out sub-audits whose owner derived another content address or refused the request (then run locally).", Kind: auditd.Counter, Value: n.m.forwardMismatches.Load()},
		{Name: "auditd_cluster_fanouts_total", Help: "Many-deployment audits split across the fleet.", Kind: auditd.Counter, Value: n.m.fanouts.Load()},
		{Name: "auditd_cluster_fanout_subaudits_total", Help: "Single-deployment sub-audits spawned by fan-outs.", Kind: auditd.Counter, Value: n.m.fanoutSubaudits.Load()},
		{Name: "auditd_cluster_replicated_records_total", Help: "Ingested records pushed to peers (records x peers).", Kind: auditd.Counter, Value: n.m.replicatedRecords.Load()},
		{Name: "auditd_cluster_replication_failures_total", Help: "Peers an ingest replication could not reach.", Kind: auditd.Counter, Value: n.m.replicationFailures.Load()},
		{Name: "auditd_cluster_peer_cache_hits_total", Help: "Results served from a peer's cache.", Kind: auditd.Counter, Value: n.m.peerCacheHits.Load()},
	}
}
