// Package agentsim simulates a fleet of data-source agents over a fat-tree
// datacenter — the live-acquisition side of the paper's Fig. 1: every server
// runs the three §3 acquisition modules (hardware inventory, software
// package resolver, traffic-based network miner) behind one Collect method,
// and a churn generator replays the small, continuous dependency
// changes (flapping NICs, rolling software upgrades, re-observed flows) that
// the delta audit engine was built to absorb.
//
// The fleet is deterministic in its seed: the same Config yields the same
// machines, package universes and churn sequence, so load tests and smoke
// scripts are reproducible.
package agentsim

import (
	"fmt"
	"math/rand"
	"sync"

	"indaas/internal/deps"
	"indaas/internal/hwinv"
	"indaas/internal/netflow"
	"indaas/internal/swpkg"
	"indaas/internal/topology"
)

// Config sizes the fleet.
type Config struct {
	// K is the fat-tree arity; the fleet has k³/4 servers (default 8 → 128).
	K int
	// Seed makes machines, universes and churn deterministic (default 1).
	Seed int64
	// FlowsPerServer is how many Internet flows each server's miner observes
	// at bootstrap (default 32).
	FlowsPerServer int
	// MinFlows is the miner's noise filter (default 2).
	MinFlows int
}

func (c *Config) defaults() {
	if c.K <= 0 {
		c.K = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FlowsPerServer <= 0 {
		c.FlowsPerServer = 32
	}
	if c.MinFlows <= 0 {
		c.MinFlows = 2
	}
}

// servicePackages is the package universe every node bootstraps with: a
// service binary over a small shared base, versioned so rolling upgrades
// have something to bump.
var servicePackages = []swpkg.Package{
	{Name: "libc", Version: "2.19"},
	{Name: "openssl", Version: "1.0.1"},
	{Name: "libevent", Version: "2.0.21", Depends: []string{"libc"}},
	{Name: "svc", Version: "1.0", Depends: []string{"libc", "openssl", "libevent"}},
}

// Node is one simulated server: its hardware inventory, its package
// universe, and a view of the shared network.
type Node struct {
	Server string

	mu      sync.Mutex
	machine hwinv.Machine
	pkgs    *swpkg.Universe
	flows   int // Internet flows the miner last observed
	fleet   *Fleet
}

// Fleet is the set of simulated agents over one datacenter topology.
type Fleet struct {
	Topo  *topology.Topology
	cfg   Config
	nodes []*Node
	bydns map[string]*Node
	gen   *netflow.Generator
	miner *netflow.Miner
}

// New builds a fleet over topology.FatTree(cfg.K).
func New(cfg Config) (*Fleet, error) {
	cfg.defaults()
	topo, err := topology.FatTree(cfg.K)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		Topo:  topo,
		cfg:   cfg,
		bydns: make(map[string]*Node),
		gen:   &netflow.Generator{Topo: topo},
		miner: &netflow.Miner{MinFlows: cfg.MinFlows},
	}
	for i, server := range topo.Servers() {
		n := &Node{
			Server:  server,
			machine: hwinv.Generate(server, cfg.Seed+int64(i)*7919),
			pkgs:    swpkg.NewUniverse(),
			flows:   cfg.FlowsPerServer,
			fleet:   f,
		}
		for _, p := range servicePackages {
			if err := n.pkgs.Add(p); err != nil {
				return nil, fmt.Errorf("agentsim: seeding %s: %w", server, err)
			}
		}
		f.nodes = append(f.nodes, n)
		f.bydns[server] = n
	}
	return f, nil
}

// Size returns the number of simulated servers.
func (f *Fleet) Size() int { return len(f.nodes) }

// Servers lists the fleet's server names in topology order.
func (f *Fleet) Servers() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.Server
	}
	return out
}

// Node returns the node simulating server, or nil.
func (f *Fleet) Node(server string) *Node { return f.bydns[server] }

// Collect runs the node's three acquisition modules and returns its current
// Table 1 records. A non-empty subjects list that does not include this
// node's server yields no records.
func (n *Node) Collect(subjects []string) ([]deps.Record, error) {
	if len(subjects) > 0 {
		found := false
		for _, s := range subjects {
			if s == n.Server {
				found = true
				break
			}
		}
		if !found {
			return nil, nil
		}
	}
	return n.Records()
}

// Records runs the node's acquisition modules: hardware inventory walk,
// package closure resolution for the service program, and flow mining.
func (n *Node) Records() ([]deps.Record, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recordsLocked()
}

func (n *Node) recordsLocked() ([]deps.Record, error) {
	out := hwinv.Collect(n.machine, true)
	sw, err := n.pkgs.Record("svc", n.Server, "svc")
	if err != nil {
		return nil, fmt.Errorf("agentsim: %s software: %w", n.Server, err)
	}
	out = append(out, sw)
	net, err := n.netRecordsLocked()
	if err != nil {
		return nil, err
	}
	return append(out, net...), nil
}

func (n *Node) netRecordsLocked() ([]deps.Record, error) {
	flows, err := n.fleet.gen.InternetFlows(n.Server, n.flows)
	if err != nil {
		return nil, fmt.Errorf("agentsim: %s flows: %w", n.Server, err)
	}
	return n.fleet.miner.Mine(flows), nil
}

// nicModels are the catalog NICs a flap alternates between.
var nicModels = hwinv.Catalog["NIC"]

// FlapNIC swaps the node's NIC to the next catalog model — the classic
// small hardware change — and returns the new observation record.
func (n *Node) FlapNIC() deps.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, c := range n.machine.Components {
		if c.Type != "NIC" {
			continue
		}
		for j, m := range nicModels {
			if m == c.Model {
				c.Model = nicModels[(j+1)%len(nicModels)]
				break
			}
		}
		n.machine.Components[i] = c
		return deps.NewHardware(n.Server, "NIC", n.Server+"-"+c.Model)
	}
	// A machine without a NIC cannot flap one; generated machines always
	// have one, so this is unreachable in practice.
	return deps.NewHardware(n.Server, "NIC", n.Server+"-missing")
}

// Upgrade bumps one of the node's packages to version and returns the
// service's refreshed software record (its dependency closure changed).
func (n *Node) Upgrade(pkg, version string) (deps.Record, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.pkgs.Upgrade(pkg, version, nil); err != nil {
		return deps.Record{}, err
	}
	return n.pkgs.Record("svc", n.Server, "svc")
}

// Reobserve re-runs the node's flow miner with a different observation
// count, as a fresh capture window would, and returns the mined records.
func (n *Node) Reobserve(flows int) ([]deps.Record, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if flows > 0 {
		n.flows = flows
	}
	return n.netRecordsLocked()
}

// Bootstrap collects every node's full record set, one batch per node — the
// fleet's initial mass acquisition (§2 Step 2 at datacenter scale).
func (f *Fleet) Bootstrap() ([][]deps.Record, error) {
	out := make([][]deps.Record, 0, len(f.nodes))
	for _, n := range f.nodes {
		recs, err := n.Records()
		if err != nil {
			return nil, err
		}
		out = append(out, recs)
	}
	return out, nil
}

// pickNode draws a random node, skipping excluded servers.
func (f *Fleet) pickNode(rng *rand.Rand, exclude map[string]bool) *Node {
	for {
		n := f.nodes[rng.Intn(len(f.nodes))]
		if !exclude[n.Server] {
			return n
		}
	}
}
