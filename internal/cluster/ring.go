// Package cluster turns a set of independent auditd nodes into one serving
// fleet. It hangs off the seams internal/auditd exposes instead of invading
// it: a remote Executor wrapped around the local worker pool routes each
// workload to the hash owner of its content address, a peer ResultTier
// probes the owner's cache behind the local memory and disk tiers, and a
// replication hook pushes ingested records to every peer so the fleet's
// databases — and therefore its content addresses — converge.
//
// Membership is static (the -peers flag); liveness is not. Every node polls
// every peer's /healthz for reachability and routes around dead peers. A
// forward proves its address: the coordinator relays an owner's result only
// when the owner derived the coordinator's own content address, and falls
// back to computing locally when it did not or when a forward fails — a
// cluster node degrades to exactly the single-node daemon, never to an
// error or to another node's answer.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// vnodes is how many points each node projects onto the ring. More points
// smooth the distribution (at 256, a 4-node ring stays within a few percent
// of uniform) and shrink the remap set when membership changes to ~1/N of
// the keyspace.
const vnodes = 256

// ring is a consistent-hash ring over the cluster's node addresses. The
// ring itself is immutable after build — liveness is handled at lookup time
// by skipping points whose node the caller says is dead, which preserves
// the ownership of every key whose owner is alive no matter which other
// nodes come and go.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// hashPoint maps a label to its ring position: the first 8 bytes of its
// SHA-256, the same family of hash the content addresses themselves use.
func hashPoint(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring over the given node addresses (duplicates
// ignored).
func newRing(nodes []string) *ring {
	r := &ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < vnodes; i++ {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(i))
			r.points = append(r.points, ringPoint{hash: hashPoint(n + "#" + string(b[:])), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // deterministic on (absurdly unlikely) collisions
	})
	return r
}

// owner returns the node owning key: the first ring point at or after the
// key's hash whose node alive() accepts, wrapping around. With no alive
// node it returns "".
func (r *ring) owner(key string, alive func(node string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	skipped := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if skipped[p.node] {
			continue
		}
		if alive == nil || alive(p.node) {
			return p.node
		}
		skipped[p.node] = true
		if len(skipped) == len(r.nodes) {
			return ""
		}
	}
	return ""
}
