package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// healthTimeout bounds one /healthz probe. Health checks race real traffic
// on the same loopback or LAN hop, so a slow answer is itself a signal.
const healthTimeout = 2 * time.Second

// peerState is what this node believes about one peer, refreshed by the
// poller and corrected inline by traffic (a refused forward marks the peer
// dead immediately).
type peerState struct {
	alive atomic.Bool
}

// probe fetches addr's /healthz once and reports whether the peer is up. Any
// transport or decode failure reads as dead. Routing needs nothing else from
// the body: whether a peer may compute a request is settled by the address
// it derives for it (see router).
func (n *Node) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var hv struct {
		OK bool `json:"ok"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&hv) == nil && hv.OK
}

// refresh probes one peer and folds the result into its state.
func (n *Node) refresh(ctx context.Context, addr string) {
	if st := n.peers[addr]; st != nil {
		st.alive.Store(n.probe(ctx, addr))
	}
}

// peerAlive reports the poller's current belief about addr; the node's own
// address is always alive.
func (n *Node) peerAlive(addr string) bool {
	if addr == n.cfg.Self {
		return true
	}
	st := n.peers[addr]
	return st != nil && st.alive.Load()
}

// markDead records an observed failure against addr without waiting for the
// next poll — the router calls it the moment a forward is refused, so the
// very next workload routes around the corpse.
func (n *Node) markDead(addr string) {
	if st := n.peers[addr]; st != nil {
		st.alive.Store(false)
	}
}

// healthyPeers counts peers currently believed alive.
func (n *Node) healthyPeers() int {
	alive := 0
	for _, addr := range n.cfg.Peers {
		if n.peerAlive(addr) {
			alive++
		}
	}
	return alive
}

// poll runs the membership loop: probe every peer, sleep, repeat, until
// Stop cancels the context. The first sweep runs immediately so a freshly
// started node routes sensibly without waiting out an interval.
func (n *Node) poll(ctx context.Context) {
	defer n.wg.Done()
	for {
		for _, addr := range n.cfg.Peers {
			n.refresh(ctx, addr)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(n.cfg.PollInterval):
		}
	}
}
