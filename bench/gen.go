package main

import (
	"fmt"

	"indaas/internal/agentsim"
	"indaas/internal/auditd"
	"indaas/internal/core"
	"indaas/internal/deps"
	"indaas/internal/topology"
)

// pods groups candidate servers by fat-tree pod, so a generator can draw a
// cross-pod pair — two servers that share no ToR or aggregation switch.
type pods [][]string

// pair returns the i-th cross-pod server pair under seed: a function of
// (seed, i) only, and never the same server twice.
func (p pods) pair(seed int64, i int) (a, b string) {
	h := mix(seed, uint64(i))
	pa := int(h % uint64(len(p)))
	pb := (pa + 1 + int((h>>16)%uint64(len(p)-1))) % len(p) // any pod but pa
	a = p[pa][int((h>>32)%uint64(len(p[pa])))]
	b = p[pb][int((h>>48)%uint64(len(p[pb])))]
	return a, b
}

// fatTreeInputs generates the Fig. 7 dependency data: the network records
// (every redundant route to the Internet) of perPod servers in each pod of
// a k-port fat tree, as the topology acquirer reports them.
func fatTreeInputs(k, perPod int) (pods, []deps.Record, error) {
	ft, err := topology.FatTree(k)
	if err != nil {
		return nil, nil, err
	}
	var ps pods
	var all []string
	for pod := 0; pod < k; pod++ {
		var in []string
		for t := 0; t < perPod; t++ {
			in = append(in, topology.FatTreeServer(pod, t%(k/2), t/(k/2)))
		}
		ps = append(ps, in)
		all = append(all, in...)
	}
	recs, err := core.TopologyAcquirer(ft).Collect(all)
	return ps, recs, err
}

// fleetInputs generates the three-kind agentsim fleet (network, hardware
// and software records for every server of a k-port fat tree) and its
// bootstrap records. skip leading servers are left out of the returned
// pods, so a workload can reserve them.
func fleetInputs(k int, seed int64, skip int) (*agentsim.Fleet, pods, []deps.Record, error) {
	fleet, err := agentsim.New(agentsim.Config{K: k, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	batches, err := fleet.Bootstrap()
	if err != nil {
		return nil, nil, nil, err
	}
	var recs []deps.Record
	for _, b := range batches {
		recs = append(recs, b...)
	}
	ps := make(pods, k)
	for i, s := range fleet.Servers() {
		if i < skip {
			continue
		}
		dev, _ := fleet.Topo.Device(s)
		ps[dev.Pod] = append(ps[dev.Pod], s)
	}
	return fleet, ps, recs, nil
}

// deployment is a two-server audit request under a name unique to
// (tag, seed, i): a fresh name is a fresh content address, so the daemon
// has never seen the request and nothing it cached can answer it.
func deployment(tag string, seed int64, i int, a, b string) *auditd.SubmitRequest {
	return &auditd.SubmitRequest{
		Title: "bench",
		Deployments: []auditd.DeploymentWire{
			{Name: fmt.Sprintf("%s-s%d-%06d", tag, seed, i), Servers: []string{a, b}},
		},
	}
}
