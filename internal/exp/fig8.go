package exp

import (
	"fmt"
	"time"

	"indaas/internal/psi"
	"indaas/internal/psi/ks"
)

// Fig8Point is one protocol measurement.
type Fig8Point struct {
	Protocol string // "P-SOP" or "KS"
	Parties  int
	Elements int
	Bytes    int64
	Elapsed  time.Duration
}

// Fig8Result collects the Fig. 8 bandwidth/computation series.
type Fig8Result struct {
	Points []Fig8Point
}

// Fig8Config scales the experiment.
type Fig8Config struct {
	// Parties lists the provider counts (paper: 2, 3, 4).
	Parties []int
	// PSOPElements / KSElements list dataset sizes per protocol (the paper
	// sweeps 10³..10⁵; KS is quadratic, so its default list is smaller).
	PSOPElements []int
	KSElements   []int
	// Bits is KS's Paillier key size (paper: 1024; default 512 keeps the
	// laptop-scale run fast). P-SOP's X25519 cipher has one size.
	Bits int
	// KSBlindBits bounds KS blinding coefficients (see ks.Config).
	KSBlindBits int
	// Overlap is the fraction of elements shared across parties.
	Overlap float64
}

func (c *Fig8Config) defaults() {
	if len(c.Parties) == 0 {
		c.Parties = []int{2, 3, 4}
	}
	if len(c.PSOPElements) == 0 {
		c.PSOPElements = []int{100, 200, 400, 800, 1600}
	}
	if len(c.KSElements) == 0 {
		c.KSElements = []int{25, 50, 100}
	}
	if c.Bits == 0 {
		c.Bits = 512
	}
	if c.KSBlindBits == 0 {
		c.KSBlindBits = 64
	}
	if c.Overlap == 0 {
		c.Overlap = 0.2
	}
}

// Fig8FullConfig approaches the paper's sweep (1024-bit KS keys, larger n).
func Fig8FullConfig() Fig8Config {
	return Fig8Config{
		PSOPElements: []int{1_000, 3_000, 10_000, 30_000, 100_000},
		KSElements:   []int{100, 300, 1_000},
		Bits:         1024,
	}
}

// fig8Sets builds k datasets of n elements with the configured overlap.
func fig8Sets(k, n int, overlap float64) [][]string {
	shared := int(float64(n) * overlap)
	sets := make([][]string, k)
	for i := range sets {
		set := make([]string, 0, n)
		for j := 0; j < shared; j++ {
			set = append(set, fmt.Sprintf("pkg:shared-%d", j))
		}
		for j := shared; j < n; j++ {
			set = append(set, fmt.Sprintf("cloud%d/private-%d", i, j))
		}
		sets[i] = set
	}
	return sets
}

// RunFig8 measures bandwidth and computational time of P-SOP and KS across
// party counts and dataset sizes.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	cfg.defaults()
	res := &Fig8Result{}
	for _, k := range cfg.Parties {
		for _, n := range cfg.PSOPElements {
			sets := fig8Sets(k, n, cfg.Overlap)
			var r *psi.Result
			elapsed, err := timed(func() error {
				var err error
				r, err = psi.PSOP(psi.PSOPConfig{}, sets)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig8: P-SOP k=%d n=%d: %w", k, n, err)
			}
			res.Points = append(res.Points, Fig8Point{
				Protocol: "P-SOP", Parties: k, Elements: n,
				Bytes: r.Stats.BytesSent, Elapsed: elapsed,
			})
		}
		for _, n := range cfg.KSElements {
			sets := fig8Sets(k, n, cfg.Overlap)
			var r *psi.Result
			elapsed, err := timed(func() error {
				var err error
				r, err = ks.Run(ks.Config{Bits: cfg.Bits, BlindBits: cfg.KSBlindBits}, sets)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig8: KS k=%d n=%d: %w", k, n, err)
			}
			res.Points = append(res.Points, Fig8Point{
				Protocol: "KS", Parties: k, Elements: n,
				Bytes: r.Stats.BytesSent, Elapsed: elapsed,
			})
		}
	}
	return res, nil
}

// Render formats the two series (bandwidth = Fig. 8a, time = Fig. 8b).
func (r *Fig8Result) Render() *Table {
	t := &Table{
		Title:  "Fig. 8 — PIA protocol overheads: P-SOP vs KS (§6.3.2, scaled)",
		Header: []string{"protocol", "k", "n", "traffic (KB)", "time"},
	}
	for _, p := range r.Points {
		t.Append(p.Protocol+fmt.Sprintf("(%d)", p.Parties), p.Parties, p.Elements,
			fmt.Sprintf("%.1f", float64(p.Bytes)/1024), p.Elapsed)
	}
	return t
}

// Verify checks Fig. 8's qualitative claims at harness scale:
//
//  1. P-SOP cost grows ~linearly in n (time per element roughly flat);
//  2. KS computation grows super-linearly in n (quadratic polynomial
//     arithmetic);
//  3. at equal (k, n), KS moves more bytes and takes longer than P-SOP.
func (r *Fig8Result) Verify() error {
	series := map[string][]Fig8Point{}
	for _, p := range r.Points {
		key := fmt.Sprintf("%s-%d", p.Protocol, p.Parties)
		series[key] = append(series[key], p)
	}
	for key, points := range series {
		if len(points) < 2 {
			continue
		}
		first, last := points[0], points[len(points)-1]
		growth := float64(last.Elapsed) / float64(first.Elapsed)
		sizeRatio := float64(last.Elements) / float64(first.Elements)
		if points[0].Protocol == "KS" {
			// Quadratic: time growth should clearly exceed the size ratio.
			if growth < sizeRatio*1.5 {
				return fmt.Errorf("fig8: %s grew only %.1fx over a %.1fx size sweep (expected super-linear)",
					key, growth, sizeRatio)
			}
		} else {
			// Linear-ish: time growth should not be wildly super-linear.
			if growth > sizeRatio*8 {
				return fmt.Errorf("fig8: %s grew %.1fx over a %.1fx size sweep (expected ~linear)",
					key, growth, sizeRatio)
			}
		}
	}
	// Head-to-head at matching (k, n) pairs.
	type knKey struct{ k, n int }
	psop := map[knKey]Fig8Point{}
	for _, p := range r.Points {
		if p.Protocol == "P-SOP" {
			psop[knKey{p.Parties, p.Elements}] = p
		}
	}
	compared := false
	for _, p := range r.Points {
		if p.Protocol != "KS" {
			continue
		}
		if q, ok := psop[knKey{p.Parties, p.Elements}]; ok {
			compared = true
			if p.Bytes <= q.Bytes {
				return fmt.Errorf("fig8: KS bytes %d ≤ P-SOP bytes %d at k=%d n=%d",
					p.Bytes, q.Bytes, p.Parties, p.Elements)
			}
		}
	}
	if !compared {
		return fmt.Errorf("fig8: no common (k, n) points to compare — configure overlapping element lists")
	}
	return nil
}
