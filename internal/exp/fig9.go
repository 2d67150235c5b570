package exp

import (
	"fmt"
	"time"

	"indaas/internal/faultgraph"
	"indaas/internal/minhash"
	"indaas/internal/pia"
	"indaas/internal/psi/ks"
	"indaas/internal/riskgroup"
)

// Fig9Point is one method's total cost over all candidate deployments for a
// given provider count.
type Fig9Point struct {
	Method    string // "PIA-KS", "SIA-minimal", "PIA-P-SOP", "SIA-sampling"
	Providers int
	Arity     int // 2 = two-way, 3 = three-way
	Elapsed   time.Duration
}

// Fig9Result collects the SIA-vs-PIA comparison of Fig. 9.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9Config scales the experiment.
type Fig9Config struct {
	// ProviderCounts lists the m values (paper: 5..20; default {4, 6}).
	ProviderCounts []int
	// Elements is each provider's component-set size (paper: 10⁴;
	// default 60 — the three-way minimal-RG families grow cubically in the
	// per-provider private-set size, which is exactly Fig. 9's point).
	Elements int
	// Arities lists the deployment widths to evaluate (default {2, 3}).
	Arities []int
	// Rounds is the sampling round count (paper: 10⁶; default 10⁴).
	Rounds int
	// Bits / KSBlindBits parametrize the KS baseline's Paillier cipher;
	// P-SOP's X25519 cipher has one size.
	Bits        int
	KSBlindBits int
	// KSMinHashM is the MinHash signature width the KS runs use
	// (default 32 — KS cost is quadratic in the signature width).
	KSMinHashM int
	// SkipKS drops the (very slow) KS runs.
	SkipKS bool
	// Overlap is the fraction of components shared across providers.
	Overlap float64
	Seed    int64
}

func (c *Fig9Config) defaults() {
	if len(c.ProviderCounts) == 0 {
		c.ProviderCounts = []int{4, 6}
	}
	if c.Elements == 0 {
		c.Elements = 60
	}
	if len(c.Arities) == 0 {
		c.Arities = []int{2, 3}
	}
	if c.Rounds == 0 {
		c.Rounds = 10_000
	}
	if c.Bits == 0 {
		c.Bits = 512
	}
	if c.KSBlindBits == 0 {
		c.KSBlindBits = 64
	}
	if c.KSMinHashM == 0 {
		c.KSMinHashM = 32
	}
	if c.Overlap == 0 {
		c.Overlap = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fig9FullConfig approaches the paper's setting.
func Fig9FullConfig() Fig9Config {
	return Fig9Config{
		ProviderCounts: []int{5, 10, 15, 20},
		Elements:       10_000,
		Rounds:         1_000_000,
		Bits:           1024,
		SkipKS:         false,
	}
}

// RunFig9 compares, for each provider count m, the total time to evaluate
// every two-way (and three-way) redundancy deployment with four methods:
// SIA with the minimal RG algorithm, SIA with failure sampling (both at the
// component-set level, as a trusted auditor), PIA with P-SOP, and PIA with
// the KS baseline.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	cfg.defaults()
	res := &Fig9Result{}
	for _, m := range cfg.ProviderCounts {
		providers := fig9Providers(m, cfg.Elements, cfg.Overlap)
		for _, arity := range cfg.Arities {
			var deployments []pia.Deployment
			switch arity {
			case 2:
				deployments = pia.AllPairs(m)
			case 3:
				deployments = pia.AllTriples(m)
			default:
				return nil, fmt.Errorf("fig9: unsupported arity %d", arity)
			}

			// SIA, minimal RG algorithm at the component-set level.
			elapsed, err := timed(func() error {
				return fig9SIA(providers, deployments, func(g *faultgraph.Graph) error {
					_, err := riskgroup.MinimalRGs(g, riskgroup.MinimalOptions{})
					return err
				})
			})
			if err != nil {
				return nil, fmt.Errorf("fig9: SIA-minimal m=%d: %w", m, err)
			}
			res.Points = append(res.Points, Fig9Point{Method: "SIA-minimal", Providers: m, Arity: arity, Elapsed: elapsed})

			// SIA, failure sampling.
			elapsed, err = timed(func() error {
				return fig9SIA(providers, deployments, func(g *faultgraph.Graph) error {
					_, err := riskgroup.Sampler{Rounds: cfg.Rounds, Shrink: false, Seed: cfg.Seed}.Sample(g)
					return err
				})
			})
			if err != nil {
				return nil, fmt.Errorf("fig9: SIA-sampling m=%d: %w", m, err)
			}
			res.Points = append(res.Points, Fig9Point{Method: "SIA-sampling", Providers: m, Arity: arity, Elapsed: elapsed})

			// PIA with P-SOP: each provider keeps its set behind its own
			// party, as if it ran a proxy.
			parties := make([]pia.Provider, len(providers))
			for i, p := range providers {
				parties[i] = pia.AsParty(p, 0)
			}
			elapsed, err = timed(func() error {
				_, err := pia.AuditDeployments(pia.Config{}, parties, deployments)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig9: PIA-P-SOP m=%d: %w", m, err)
			}
			res.Points = append(res.Points, Fig9Point{Method: "PIA-P-SOP", Providers: m, Arity: arity, Elapsed: elapsed})

			// PIA with KS.
			if !cfg.SkipKS {
				elapsed, err = timed(func() error { return fig9KS(cfg, providers, deployments) })
				if err != nil {
					return nil, fmt.Errorf("fig9: PIA-KS m=%d: %w", m, err)
				}
				res.Points = append(res.Points, Fig9Point{Method: "PIA-KS", Providers: m, Arity: arity, Elapsed: elapsed})
			}
		}
	}
	return res, nil
}

// fig9Providers builds m component-sets of n elements with a shared core.
func fig9Providers(m, n int, overlap float64) []pia.Provider {
	shared := int(float64(n) * overlap)
	out := make([]pia.Provider, m)
	for i := range out {
		comps := make([]string, 0, n)
		for j := 0; j < shared; j++ {
			comps = append(comps, fmt.Sprintf("pkg:common-%d", j))
		}
		for j := shared; j < n; j++ {
			comps = append(comps, fmt.Sprintf("cloud%d/comp-%d", i, j))
		}
		out[i] = pia.Provider{Name: fmt.Sprintf("Cloud%d", i+1), Components: comps}
	}
	return out
}

// fig9KS audits every deployment as PIA-KS: each provider signs its set
// with m-function MinHash (§4.2.4), because KS yields only |∩| and its cost
// is quadratic in the set size, and KS counts the signature elements every
// member shares (J ≈ |∩|/m).
func fig9KS(cfg Fig9Config, providers []pia.Provider, deployments []pia.Deployment) error {
	h, err := minhash.NewHasher(cfg.KSMinHashM)
	if err != nil {
		return err
	}
	sigs := make([][]string, len(providers))
	for i, p := range providers {
		sig, err := h.Sign(p.Components)
		if err != nil {
			return err
		}
		sigs[i] = sig.Elements()
	}
	for _, d := range deployments {
		sets := make([][]string, len(d))
		for i, idx := range d {
			sets[i] = sigs[idx]
		}
		if _, err := ks.Run(ks.Config{Bits: cfg.Bits, BlindBits: cfg.KSBlindBits}, sets); err != nil {
			return err
		}
	}
	return nil
}

// fig9SIA evaluates every deployment at the component-set level with the
// given analysis, modelling the trusted auditor of §6.3.3.
func fig9SIA(providers []pia.Provider, deployments []pia.Deployment, analyze func(*faultgraph.Graph) error) error {
	for _, d := range deployments {
		sources := make([]faultgraph.SourceSet, len(d))
		for i, idx := range d {
			sources[i] = faultgraph.SourceSet{
				Source:     providers[idx].Name,
				Components: providers[idx].Components,
			}
		}
		g, err := faultgraph.FromSourceSets("deployment fails", len(sources), sources)
		if err != nil {
			return err
		}
		if err := analyze(g); err != nil {
			return err
		}
	}
	return nil
}

// Render formats the series.
func (r *Fig9Result) Render() *Table {
	t := &Table{
		Title:  "Fig. 9 — SIA vs PIA computational cost (§6.3.3, scaled)",
		Header: []string{"method", "providers", "arity", "total time"},
	}
	for _, p := range r.Points {
		t.Append(p.Method, p.Providers, fmt.Sprintf("%d-way", p.Arity), p.Elapsed)
	}
	return t
}

// Verify checks Fig. 9's qualitative ordering at the largest provider
// count: SIA sampling is the cheapest; PIA-P-SOP costs more than SIA
// sampling; PIA-KS (when run) is the most expensive of the private methods.
func (r *Fig9Result) Verify() error {
	byMethod := map[string]time.Duration{}
	maxM := 0
	for _, p := range r.Points {
		if p.Providers > maxM {
			maxM = p.Providers
		}
	}
	for _, p := range r.Points {
		if p.Providers == maxM && p.Arity == 2 {
			byMethod[p.Method] += p.Elapsed
		}
	}
	sampling, okS := byMethod["SIA-sampling"]
	psop, okP := byMethod["PIA-P-SOP"]
	if !okS || !okP {
		return fmt.Errorf("fig9: missing methods in results: %v", byMethod)
	}
	if psop < sampling/2 {
		return fmt.Errorf("fig9: P-SOP (%v) implausibly cheaper than half of SIA sampling (%v)", psop, sampling)
	}
	if ks, ok := byMethod["PIA-KS"]; ok {
		if ks <= psop {
			return fmt.Errorf("fig9: KS (%v) not slower than P-SOP (%v)", ks, psop)
		}
	}
	return nil
}
