package exp

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/report"
	"indaas/internal/topology"
)

// Fig6aResult is the outcome of the §6.2.1 network case study.
type Fig6aResult struct {
	// Pairs is the number of two-way redundancy deployments (paper: 190).
	Pairs int
	// SafePairs counts deployments without unexpected RGs (paper: 27).
	SafePairs int
	// RandomSuccess is SafePairs/Pairs (paper: ≈ 14%).
	RandomSuccess float64
	// SamplingBest is the deployment the sampling + size-ranking run
	// suggests (paper: {Rack5, Rack29}).
	SamplingBest string
	// ProbBest is the deployment with the lowest failure probability at
	// p = 0.1 per device (paper: {Rack5, Rack29}), with its probability.
	ProbBest     string
	ProbBestProb float64
	// ProbUnique reports whether ProbBest is the unique minimum.
	ProbUnique bool
	// SamplingRounds is the round count used (paper: 10⁶).
	SamplingRounds int
}

// Fig6aConfig scales the experiment.
type Fig6aConfig struct {
	// Rounds for the failure sampling run (default 2×10⁵; paper 10⁶).
	Rounds int
	// Seed for the sampler.
	Seed int64
}

// RunFig6a executes the common-network-dependency case study on the
// Benson-style data center: audit every two-way redundancy deployment over
// the 20 candidate racks, first with failure sampling + size ranking (the
// paper's run), then with the minimal RG algorithm + failure probability
// 0.1 per device (the paper's formal analysis). Both runs are requests to an
// in-process audit service over the racks' records.
func RunFig6a(cfg Fig6aConfig) (*Fig6aResult, error) {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 200_000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	candidates := topology.BensonCandidateRacks()
	records, err := topology.BensonDC().NetworkRecords(candidates)
	if err != nil {
		return nil, err
	}
	db := depdb.New()
	if err := db.Put(records...); err != nil {
		return nil, err
	}
	ctx := context.Background() // the run owns the service it starts
	s := auditd.New(auditd.Config{DB: db})
	defer s.Shutdown(ctx)

	var pairs []auditd.DeploymentWire
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			pairs = append(pairs, auditd.DeploymentWire{
				Name:    candidates[i] + "+" + candidates[j],
				Servers: []string{candidates[i], candidates[j]},
			})
		}
	}

	res := &Fig6aResult{Pairs: len(pairs), SamplingRounds: rounds}

	// Run 1 (the paper's run): failure sampling + size-based ranking.
	sampled, err := serveAudit(ctx, s, &auditd.SubmitRequest{
		Title:          "fig6a sampling",
		Deployments:    pairs,
		Algorithm:      "failure-sampling",
		Rounds:         rounds,
		Seed:           seed,
		SamplerWorkers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	best, err := sampled.Best()
	if err != nil {
		return nil, err
	}
	res.SamplingBest = best.Deployment
	for _, a := range sampled.Audits {
		if a.Unexpected == 0 {
			res.SafePairs++
		}
	}
	res.RandomSuccess = float64(res.SafePairs) / float64(res.Pairs)

	// Run 2 (the paper's formal check): minimal RGs + failure probability
	// 0.1 for every network device, ranked by Pr(outage).
	probRep, err := serveAudit(ctx, s, &auditd.SubmitRequest{
		Title:       "fig6a probability",
		Deployments: pairs,
		FailureProb: 0.1,
	})
	if err != nil {
		return nil, err
	}
	pbest, err := probRep.Best()
	if err != nil {
		return nil, err
	}
	res.ProbBest = pbest.Deployment
	res.ProbBestProb = pbest.FailureProb
	res.ProbUnique = len(probRep.Audits) < 2 ||
		probRep.Audits[1].FailureProb > pbest.FailureProb+1e-15
	return res, nil
}

// serveAudit runs one audit request to completion on an in-process audit
// service and returns its report: the case studies check the paper's
// numbers against what the service serves.
func serveAudit(ctx context.Context, s *auditd.Server, req *auditd.SubmitRequest) (*report.Report, error) {
	st, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	if st, err = s.WaitDone(ctx, st.ID, math.MaxInt64); err != nil {
		return nil, err
	}
	if st.State != auditd.StateDone {
		return nil, fmt.Errorf("%s: audit %s: %s", req.Title, st.State, st.Error)
	}
	return s.Report(st.ID)
}

// Render formats the result alongside the paper's published numbers.
func (r *Fig6aResult) Render() *Table {
	t := &Table{
		Title:  "Fig. 6a — common network dependency case study (§6.2.1)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Append("two-way deployments", r.Pairs, 190)
	t.Append("deployments w/o unexpected RGs", r.SafePairs, 27)
	t.Append("random-selection success", fmt.Sprintf("%.1f%%", 100*r.RandomSuccess), "14%")
	t.Append("sampling+size-rank suggestion", r.SamplingBest, "Rack5+Rack29")
	t.Append("lowest Pr(outage) @ p=0.1", fmt.Sprintf("%s (%.6f)", r.ProbBest, r.ProbBestProb), "Rack5+Rack29")
	t.Append("unique minimum", r.ProbUnique, true)
	return t
}

// Verify checks the run against the paper's §6.2.1 claims.
func (r *Fig6aResult) Verify() error {
	if r.Pairs != 190 {
		return fmt.Errorf("fig6a: %d pairs, want 190", r.Pairs)
	}
	if r.SafePairs != 27 {
		return fmt.Errorf("fig6a: %d safe pairs, want 27", r.SafePairs)
	}
	if r.SamplingBest != "Rack5+Rack29" {
		return fmt.Errorf("fig6a: sampling suggests %q, want Rack5+Rack29", r.SamplingBest)
	}
	if r.ProbBest != "Rack5+Rack29" || !r.ProbUnique {
		return fmt.Errorf("fig6a: probability analysis picked %q (unique=%v)", r.ProbBest, r.ProbUnique)
	}
	// Analytic Pr for the winning pair at p = 0.1:
	// Pr = Pr(c1∧c2) + Pr(e5∨b2)·Pr(e29∨b1) − product = 0.045739.
	if math.Abs(r.ProbBestProb-0.045739) > 1e-9 {
		return fmt.Errorf("fig6a: Pr(best) = %v, want 0.045739", r.ProbBestProb)
	}
	return nil
}
