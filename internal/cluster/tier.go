package cluster

import (
	"context"

	"indaas/internal/auditd"
)

// peerTier is the cluster's ResultTier: after the local memory and disk
// tiers miss, it probes the cache of the node that owns the key — the one
// node in the fleet most likely to hold the result, since forwards
// concentrate each key's computations there. The probe hits the peer's
// /v1/cache endpoint, which answers from its memory tier only, so two nodes
// can never chase each other's caches in a loop.
//
// The tier is read-only: results enter a peer's cache by the peer computing
// them, never pushed from outside.
type peerTier struct {
	n *Node
}

func (t *peerTier) Name() string { return "peer" }

func (t *peerTier) Get(key string) (*auditd.EncodedResult, bool) {
	owner := t.n.ring.owner(key, t.n.peerAlive)
	if owner == "" || owner == t.n.cfg.Self {
		return nil, false
	}
	c := t.n.cacheC[owner]
	if c == nil {
		return nil, false
	}
	// One bounded round trip, no retries: a probe is an optimization, and a
	// miss (or a dead peer) must cost at most one RTT before computing.
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	res, err := c.CachedResult(ctx, key) // adopted as bytes: the kind is sniffed, nothing decodes
	if err != nil {
		return nil, false
	}
	t.n.m.peerCacheHits.Add(1)
	return res, true
}
