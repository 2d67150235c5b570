package cluster

import (
	"context"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"time"

	"indaas/internal/auditd"
)

// Config describes this node's place in a static-membership cluster.
type Config struct {
	// Self is the address peers reach this node at ("http://host:port" —
	// a bare host:port gets the scheme prefixed). It participates in the
	// hash ring like any peer.
	Self string
	// Peers are the other nodes' addresses.
	Peers []string
	// PollInterval is the /healthz membership poll period (default 2s).
	PollInterval time.Duration
}

// forwardRetry keeps cluster-internal calls snappy: a peer that cannot be
// reached within a couple of short attempts is treated as dead and the work
// runs locally — clients get a slower answer, never a stuck one.
var forwardRetry = auditd.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

// Node is one auditd process's view of the cluster. It owns the hash ring,
// the peer health state, and the per-peer clients, and it is the server's
// auditd.Cluster: set it as auditd.Config.Cluster.
type Node struct {
	cfg    Config
	ring   *ring
	peers  map[string]*peerState     // peer address -> believed state
	fwd    map[string]*auditd.Client // per node (self included), forwarded-marked
	rep    map[string]*auditd.Client // per peer, replicated-marked
	cacheC map[string]*auditd.Client // per peer, no retries: cache probes fail fast
	// trusted is what Self and Peers resolved to when the node was built: the
	// source addresses FromPeer accepts peer-only headers from.
	trusted map[netip.Addr]bool
	hc      *http.Client
	m       metrics

	mu     sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var _ auditd.Cluster = (*Node)(nil)

// normalizeAddr canonicalizes one node address so ring positions and map
// keys agree regardless of how the operator spelled it.
func normalizeAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// New builds a node over a static peer list. Call Start to begin health
// polling, and wire the node into auditd.Config before auditd.New:
//
//	node := cluster.New(cluster.Config{Self: self, Peers: peers})
//	cfg.Cluster = node
func New(cfg Config) *Node {
	cfg.Self = normalizeAddr(cfg.Self)
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		p = normalizeAddr(p)
		if p != "" && p != cfg.Self {
			peers = append(peers, p)
		}
	}
	cfg.Peers = peers
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	n := &Node{
		cfg:     cfg,
		ring:    newRing(append([]string{cfg.Self}, peers...)),
		peers:   make(map[string]*peerState, len(peers)),
		fwd:     make(map[string]*auditd.Client, len(peers)+1),
		rep:     make(map[string]*auditd.Client, len(peers)),
		cacheC:  make(map[string]*auditd.Client, len(peers)),
		trusted: make(map[netip.Addr]bool),
		hc:      &http.Client{}, // no global timeout: forwards long-poll job completion
	}
	for _, addr := range append([]string{cfg.Self}, peers...) {
		n.trust(addr)
		c := auditd.NewClient(addr, n.hc)
		c.Retry = forwardRetry
		c.SetHeader(auditd.ForwardedHeader, "1")
		n.fwd[addr] = c
	}
	for _, addr := range peers {
		n.peers[addr] = &peerState{}
		c := auditd.NewClient(addr, n.hc)
		c.Retry = forwardRetry
		c.SetHeader(auditd.ReplicatedHeader, "1")
		n.rep[addr] = c
		pc := auditd.NewClient(addr, n.hc)
		pc.Retry = auditd.RetryPolicy{MaxAttempts: 1}
		n.cacheC[addr] = pc
	}
	return n
}

// Start begins the membership poll loop. Idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.poll(ctx)
}

// Stop ends the poll loop and waits it out. Idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	cancel := n.cancel
	n.cancel = nil
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	n.wg.Wait()
}

// trust records the addresses a node address resolves to; a host that does
// not resolve is not trusted. An empty or unspecified host (":7080",
// "0.0.0.0:7080") is this machine, which a node dials over loopback.
func (n *Node) trust(addr string) {
	host := ""
	if u, err := url.Parse(addr); err == nil {
		host = u.Hostname()
	}
	var ips []net.IP
	if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
		ips = []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback}
	} else {
		ips, _ = net.LookupIP(host) // an IP literal resolves without a query
	}
	for _, ip := range ips {
		if a, ok := netip.AddrFromSlice(ip); ok {
			n.trusted[a.Unmap()] = true
		}
	}
}

// FromPeer reports whether r arrived from an address Self or one of the
// Peers resolved to when the node was built — the only requests whose
// peer-only headers (forwarded, replicated) the server honours. Self counts:
// a fan-out posts its sub-audits to this node too. A source address cannot
// tell two processes on one host apart; that takes a fleet key.
func (n *Node) FromPeer(r *http.Request) bool {
	ap, err := netip.ParseAddrPort(r.RemoteAddr)
	return err == nil && n.trusted[ap.Addr().Unmap()]
}

// Executor wraps the server's local worker pool with the cluster router.
func (n *Node) Executor(local auditd.Executor) auditd.Executor {
	return &router{n: n, inner: local}
}

// Tier returns the result tier that probes the hash owner's cache.
func (n *Node) Tier() auditd.ResultTier {
	return &peerTier{n: n}
}

// replicateTimeout bounds the push to one peer. Replication runs inside the
// ingest commit path, before the originating client is acknowledged, so a
// peer must not be able to stall ingests indefinitely.
const replicateTimeout = 10 * time.Second

// Replicate pushes locally originated ingest records to every live peer and
// waits for the pushes to settle.
// By the time it returns, every reachable peer holds the same records, so
// the fleet derives the same content address for every request and a
// forward lands where its result is shared. A peer that cannot be reached is
// marked dead and counted; it rejoins with records missing, and a forward
// to it of a request that reads them comes back under another address,
// which the router answers by computing locally — so correctness degrades
// to single-node rather than to wrong answers.
func (n *Node) Replicate(records []auditd.RecordWire) {
	if len(records) == 0 || len(n.cfg.Peers) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, addr := range n.cfg.Peers {
		if !n.peerAlive(addr) {
			n.m.replicationFailures.Add(1)
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
			defer cancel()
			if _, err := n.rep[addr].Ingest(ctx, records); err != nil {
				n.m.replicationFailures.Add(1)
				n.markDead(addr)
				return
			}
			n.m.replicatedRecords.Add(int64(len(records)))
		}(addr)
	}
	wg.Wait()
}
