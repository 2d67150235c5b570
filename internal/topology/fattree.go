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

// ServerToServerRoutes returns the redundant routes between two servers of a
// fat tree, as ordered device lists excluding the endpoint servers:
//
//   - same ToR: [tor];
//   - same pod, different ToR: [torS, agg j, torD] for each aggregation j;
//   - different pods: [torS, agg j (src pod), core (group j), agg j (dst
//     pod), torD] for each j and each core in group j.
func ServerToServerRoutes(t *Topology, src, dst string) ([][]string, error) {
	sd, ok := t.Device(src)
	if !ok || sd.Kind != KindServer {
		return nil, fmt.Errorf("topology: unknown server %q", src)
	}
	dd, ok := t.Device(dst)
	if !ok || dd.Kind != KindServer {
		return nil, fmt.Errorf("topology: unknown server %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("topology: src and dst are the same server %q", src)
	}
	var sp, st, ss, dp, dt, ds int
	if _, err := fmt.Sscanf(src, "srv%d_%d_%d", &sp, &st, &ss); err != nil {
		return nil, fmt.Errorf("topology: %q is not a fat-tree server: %w", src, err)
	}
	if _, err := fmt.Sscanf(dst, "srv%d_%d_%d", &dp, &dt, &ds); err != nil {
		return nil, fmt.Errorf("topology: %q is not a fat-tree server: %w", dst, err)
	}
	// Infer arity from the core count.
	h := 0
	for _, d := range t.devices {
		if d.Kind == KindAgg && d.Pod == 0 {
			h++
		}
	}
	if h == 0 {
		return nil, fmt.Errorf("topology: %q has no aggregation layer", t.Name)
	}
	var out [][]string
	switch {
	case sp == dp && st == dt:
		out = append(out, []string{torName(sp, st)})
	case sp == dp:
		for j := 0; j < h; j++ {
			out = append(out, []string{torName(sp, st), aggName(sp, j), torName(dp, dt)})
		}
	default:
		for j := 0; j < h; j++ {
			for c := 0; c < h; c++ {
				out = append(out, []string{
					torName(sp, st), aggName(sp, j), coreName(j, c), aggName(dp, j), torName(dp, dt),
				})
			}
		}
	}
	return out, nil
}
