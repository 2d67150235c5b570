package topology

import "fmt"

// FatTree generates a three-stage fat-tree topology [45] with k-port
// switches, the model behind the paper's Table 3:
//
//   - (k/2)² core routers, in k/2 groups of k/2;
//   - k pods, each with k/2 aggregation switches and k/2 ToR switches;
//   - every ToR hosts k/2 servers (k³/4 servers total);
//   - aggregation switch j of every pod uplinks to core group j.
//
// Table 3's configurations are k = 16 (Topology A: 1,344 devices), k = 24
// (Topology B: 4,176 devices) and k = 48 (Topology C: 30,528 devices).
//
// Device naming: core<g>_<i>, agg<p>_<j>, tor<p>_<j>, srv<p>_<t>_<s>.
// A server's routes to the Internet are [tor, agg, core] for every
// aggregation switch in its pod and every core in that switch's group —
// (k/2)² redundant routes.
func FatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity must be even and ≥ 2, got %d", k)
	}
	h := k / 2
	b := newTopologyBuilder(fmt.Sprintf("fattree-k%d", k))
	for g := 0; g < h; g++ {
		for i := 0; i < h; i++ {
			b.addDevice(coreName(g, i), KindCore, -1)
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < h; j++ {
			b.addDevice(aggName(p, j), KindAgg, p)
			b.addDevice(torName(p, j), KindToR, p)
		}
		for tj := 0; tj < h; tj++ {
			for s := 0; s < h; s++ {
				b.addDevice(serverName(p, tj, s), KindServer, p)
			}
		}
	}
	// Routes are generated lazily: a k=48 tree has 27,648 servers with 576
	// routes each, which is wasteful to materialize up front.
	b.t.routeFn = func(server string) ([][]string, error) {
		var p, tj, s int
		if _, err := fmt.Sscanf(server, "srv%d_%d_%d", &p, &tj, &s); err != nil {
			return nil, fmt.Errorf("topology: %q is not a fat-tree server: %w", server, err)
		}
		out := make([][]string, 0, h*h)
		for j := 0; j < h; j++ {
			for c := 0; c < h; c++ {
				out = append(out, []string{torName(p, tj), aggName(p, j), coreName(j, c)})
			}
		}
		return out, nil
	}
	return b.build()
}

func coreName(group, i int) string    { return fmt.Sprintf("core%d_%d", group, i) }
func aggName(pod, j int) string       { return fmt.Sprintf("agg%d_%d", pod, j) }
func torName(pod, j int) string       { return fmt.Sprintf("tor%d_%d", pod, j) }
func serverName(pod, t, s int) string { return fmt.Sprintf("srv%d_%d_%d", pod, t, s) }

// FatTreeServer returns the canonical name of a server in the fat tree, for
// picking deployment members without string formatting at call sites.
func FatTreeServer(pod, tor, slot int) string { return serverName(pod, tor, slot) }
