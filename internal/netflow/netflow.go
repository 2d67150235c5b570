// Package netflow simulates traffic-based network dependency acquisition —
// the paper's NSDMiner module (§3, [31,46]).
//
// NSDMiner discovers network dependencies by observing traffic flows. Here,
// a Generator routes simulated service traffic over a topology (hashing
// flows across redundant routes like ECMP) and records flow observations;
// the Miner aggregates observations back into Table 1 network dependency
// records. The mining code path — flows in, per-server route dependencies
// out — matches the real tool's shape; only the capture source is synthetic
// (§3 acquisition modules in the paper-section map, docs/ARCHITECTURE.md).
package netflow

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"indaas/internal/deps"
	"indaas/internal/topology"
)

// Flow is one observed traffic flow with the network path it took.
type Flow struct {
	Src     string   // source endpoint (server)
	Dst     string   // destination endpoint (server or "Internet")
	SrcPort int      // ephemeral source port (drives ECMP hashing)
	Bytes   int      // payload size observed
	Path    []string // devices traversed
}

// Generator produces flows for services running on a topology.
type Generator struct {
	Topo *topology.Topology
}

// InternetFlows emits n flows from server to the Internet, spreading them
// across the server's redundant routes by ECMP-style hashing of the
// 5-tuple. Flows are deterministic in (server, n).
func (g *Generator) InternetFlows(server string, n int) ([]Flow, error) {
	routes, err := g.Topo.RoutesToInternet(server)
	if err != nil {
		return nil, err
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("netflow: server %q has no routes", server)
	}
	out := make([]Flow, 0, n)
	for i := 0; i < n; i++ {
		port := 32768 + i
		route := routes[ecmpHash(server, "Internet", port)%uint32(len(routes))]
		out = append(out, Flow{
			Src: server, Dst: "Internet", SrcPort: port,
			Bytes: 512 + (i%7)*128,
			Path:  append([]string(nil), route...),
		})
	}
	return out, nil
}

func ecmpHash(src, dst string, port int) uint32 {
	h := fnv.New32a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	h.Write([]byte{0})
	h.Write([]byte{byte(port), byte(port >> 8)})
	return h.Sum32()
}

// Miner aggregates flow observations into network dependency records.
type Miner struct {
	// MinFlows is the minimum number of flows that must traverse a route
	// before it is reported as a dependency (NSDMiner's noise filter).
	MinFlows int
}

// Mine returns one Table 1 network record per (src, dst, route) triple
// observed at least MinFlows times. Records are sorted by src, dst, route
// for deterministic output.
func (m *Miner) Mine(flows []Flow) []deps.Record {
	minFlows := m.MinFlows
	if minFlows <= 0 {
		minFlows = 1
	}
	type key struct {
		src, dst, route string
	}
	counts := make(map[key]int)
	paths := make(map[key][]string)
	for _, f := range flows {
		k := key{f.Src, f.Dst, strings.Join(f.Path, ",")}
		counts[k]++
		if _, ok := paths[k]; !ok {
			paths[k] = append([]string(nil), f.Path...)
		}
	}
	keys := make([]key, 0, len(counts))
	for k, c := range counts {
		if c >= minFlows {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		if keys[i].dst != keys[j].dst {
			return keys[i].dst < keys[j].dst
		}
		return keys[i].route < keys[j].route
	})
	out := make([]deps.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, deps.NewNetwork(k.src, k.dst, paths[k]...))
	}
	return out
}

// Coverage reports the fraction of a server's true routes to the Internet
// that appear in the mined records — the "~90% of relevant dependencies"
// metric of §6.
func Coverage(t *topology.Topology, server string, mined []deps.Record) (float64, error) {
	routes, err := t.RoutesToInternet(server)
	if err != nil {
		return 0, err
	}
	truth := make(map[string]bool, len(routes))
	for _, r := range routes {
		truth[strings.Join(r, ",")] = true
	}
	if len(truth) == 0 {
		return 1, nil
	}
	found := 0
	seen := map[string]bool{}
	for _, rec := range mined {
		if rec.Kind != deps.KindNetwork || rec.Network.Src != server {
			continue
		}
		k := strings.Join(rec.Network.Route, ",")
		if truth[k] && !seen[k] {
			seen[k] = true
			found++
		}
	}
	return float64(found) / float64(len(truth)), nil
}
