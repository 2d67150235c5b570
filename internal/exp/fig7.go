package exp

import (
	"fmt"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/faultgraph"
	"indaas/internal/riskgroup"
	"indaas/internal/sia"
	"indaas/internal/topology"
)

// Fig7Point is one measurement: an algorithm run on one topology.
type Fig7Point struct {
	Topology  string
	Algorithm string // "minimal-rg" or "sampling(Nrounds)"
	Rounds    int    // 0 for the exact algorithm
	Elapsed   time.Duration
	// Detected is the fraction of true minimal RGs found (1.0 for the
	// exact algorithm) — Fig. 7's y-axis.
	Detected float64
	// MinimalRGs is the ground-truth family size.
	MinimalRGs int
}

// Fig7Result collects the accuracy/cost series of Fig. 7.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7Config scales the experiment.
type Fig7Config struct {
	// Arities lists the fat-tree port counts to run (default {8, 16};
	// the paper's Table 3 scale is {16, 24, 48}).
	Arities []int
	// RoundCounts lists the sampling round counts (default 10³..10⁵;
	// paper 10³..10⁷).
	RoundCounts []int
	// Replicas is the deployment width r (default 2): the audited service
	// replicates across r servers in distinct pods.
	Replicas int
	// Bias is the per-event failure probability of each sampling round's
	// coin flip (default 0.97). Fat-tree deployments have minimal RGs as
	// large as (k/2)² devices; a fair coin almost never produces rounds
	// containing such cuts, so the sampler would detect only the small
	// ones. Biasing the coin toward failure keeps every round informative —
	// the shrink step still reduces each failing sample to a minimal RG.
	Bias float64
	// Seed seeds the samplers. With it fixed, each larger round count only
	// adds rounds to the smaller one's sample, so detection grows
	// monotonically along a topology's series.
	Seed int64
}

func (c *Fig7Config) defaults() {
	if len(c.Arities) == 0 {
		c.Arities = []int{8, 16}
	}
	if len(c.RoundCounts) == 0 {
		c.RoundCounts = []int{1_000, 10_000, 100_000}
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Bias == 0 {
		c.Bias = 0.97
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fig7FullConfig returns the near-paper-scale configuration (slow: the
// minimal RG algorithm on k=24 mirrors the paper's 1046-minute run in
// miniature and still takes a long time).
func Fig7FullConfig() Fig7Config {
	return Fig7Config{
		Arities:     []int{16, 24},
		RoundCounts: []int{1_000, 10_000, 100_000, 1_000_000},
	}
}

// fig7Graph builds the audited fault graph: an r-way redundant deployment
// across the first server of pods 0..r−1 on a k-port fat tree, at the fault
// graph level of detail (ToR / aggregation / core path structure). Fig. 7
// times the kernels on it directly: its sampler runs with a biased coin
// (Fig7Config.Bias), which no audit request carries.
func fig7Graph(k, r int) (*faultgraph.Graph, error) {
	ft, err := topology.FatTree(k)
	if err != nil {
		return nil, err
	}
	if r > k {
		return nil, fmt.Errorf("fig7: %d replicas need at least %d pods", r, r)
	}
	servers := make([]string, r)
	for i := range servers {
		servers[i] = topology.FatTreeServer(i, 0, 0)
	}
	records, err := ft.NetworkRecords(servers)
	if err != nil {
		return nil, err
	}
	db := depdb.New()
	if err := db.Put(records...); err != nil {
		return nil, err
	}
	return sia.BuildGraph(db, sia.GraphSpec{
		Deployment: fmt.Sprintf("fattree-k%d-%dway", k, r),
		Servers:    servers,
	})
}

// RunFig7 measures the minimal RG algorithm and the failure sampling
// algorithm on each topology, reporting runtime and the fraction of
// ground-truth minimal RGs detected.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	cfg.defaults()
	res := &Fig7Result{}
	for _, k := range cfg.Arities {
		g, err := fig7Graph(k, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		topoName := fmt.Sprintf("fat-tree k=%d (%d devices)", k, countsOf(k))

		var truth []riskgroup.RG
		elapsed, err := timed(func() error {
			var err error
			truth, err = riskgroup.MinimalRGs(g, riskgroup.MinimalOptions{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig7: minimal RGs on k=%d: %w", k, err)
		}
		res.Points = append(res.Points, Fig7Point{
			Topology:   topoName,
			Algorithm:  "minimal-rg",
			Elapsed:    elapsed,
			Detected:   1,
			MinimalRGs: len(truth),
		})

		for _, rounds := range cfg.RoundCounts {
			var fam []riskgroup.RG
			elapsed, err := timed(func() error {
				var err error
				fam, err = riskgroup.Sampler{Rounds: rounds, Bias: cfg.Bias, Shrink: true, Seed: cfg.Seed}.Sample(g)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig7: sampling %d rounds on k=%d: %w", rounds, k, err)
			}
			res.Points = append(res.Points, Fig7Point{
				Topology:   topoName,
				Algorithm:  fmt.Sprintf("sampling(%d)", rounds),
				Rounds:     rounds,
				Elapsed:    elapsed,
				Detected:   riskgroup.DetectionRate(truth, fam),
				MinimalRGs: len(truth),
			})
		}
	}
	return res, nil
}

func countsOf(k int) int {
	ft, err := topology.FatTree(k)
	if err != nil {
		return 0
	}
	return ft.Counts().Total()
}

// Render formats the series.
func (r *Fig7Result) Render() *Table {
	t := &Table{
		Title:  "Fig. 7 — minimal RG algorithm vs failure sampling (§6.3.1, scaled)",
		Header: []string{"topology", "algorithm", "time", "% minimal RGs detected", "#minimal RGs"},
	}
	for _, p := range r.Points {
		t.Append(p.Topology, p.Algorithm, p.Elapsed, fmt.Sprintf("%.1f%%", 100*p.Detected), p.MinimalRGs)
	}
	return t
}

// Verify checks the qualitative claims of Fig. 7: the exact algorithm finds
// everything; sampling accuracy is monotone in rounds (within one topology)
// and the largest sampling run is much faster than exact on the largest
// topology would suggest — here we only assert detection ordering and that
// sampling reaches a usable detection rate at the top round count.
func (r *Fig7Result) Verify() error {
	byTopo := map[string][]Fig7Point{}
	for _, p := range r.Points {
		byTopo[p.Topology] = append(byTopo[p.Topology], p)
	}
	for topo, points := range byTopo {
		var prevRounds, prevIdx = -1, -1
		for i, p := range points {
			if p.Algorithm == "minimal-rg" {
				if p.Detected != 1 {
					return fmt.Errorf("fig7: exact algorithm detected %.2f on %s", p.Detected, topo)
				}
				continue
			}
			if prevIdx >= 0 && p.Rounds > prevRounds {
				if p.Detected+1e-9 < points[prevIdx].Detected {
					return fmt.Errorf("fig7: detection not monotone on %s: %d rounds %.3f < %d rounds %.3f",
						topo, p.Rounds, p.Detected, prevRounds, points[prevIdx].Detected)
				}
			}
			prevRounds, prevIdx = p.Rounds, i
		}
		last := points[len(points)-1]
		if last.Detected < 0.5 {
			return fmt.Errorf("fig7: top sampling run on %s detected only %.1f%%", topo, 100*last.Detected)
		}
	}
	return nil
}
