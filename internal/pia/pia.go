// Package pia implements Private Independence Auditing (§4.2): the Jaccard
// similarity of normalized component-sets, for every candidate redundancy
// deployment, ranked most independent first.
//
// Where a dataset lives decides how it is intersected. A deployment whose
// every component-set this process holds is counted in cleartext: the holder
// already sees each set, so a cipher would hide nothing from it (the trusted
// auditor of §6.3.3). A deployment with a member that keeps its own dataset
// (Provider.Party) runs the P-SOP ring of package psi, and the members this
// process holds join it through psi.NewParty. Both give the exact |∩|/|∪|.
//
// Security model (§4.2.1): providers are honest but curious and do not
// collude. Under P-SOP each party learns only |∩| and |∪| of the audited
// component-sets — equivalently the Jaccard similarity — and never another
// party's raw components.
package pia

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indaas/internal/deps"
	"indaas/internal/psi"
	"indaas/internal/report"
	"indaas/internal/telemetry"
)

// Provider is one cloud provider's private dataset: the normalized
// component-set of its infrastructure (§4.2.3). Either this process holds
// the set (Components), or the provider does and Party stands in for it.
type Provider struct {
	Name       string
	Components []string
	// Party, when set, returns the provider's P-SOP party for one ring of
	// the given size; Components stays empty. Every deployment the provider
	// is in runs P-SOP.
	Party func(ring int) psi.Party
}

// AsParty returns p as a provider that keeps its own dataset, as if it ran a
// proxy: every deployment it is in runs P-SOP, its set behind a fresh
// psi.NewParty per ring. The experiments time the protocol this way.
func AsParty(p Provider, workers int) Provider {
	comps := p.Components
	return Provider{Name: p.Name, Party: func(int) psi.Party { return psi.NewParty(comps, workers) }}
}

// Config tunes a PIA run.
type Config struct {
	// Workers bounds how many deployments are audited concurrently and is
	// also the parallelism of the P-SOP encryption loops inside each
	// deployment. Cardinalities are order-free, so the report is identical
	// for every worker count; 0 or 1 is the sequential path.
	Workers int
}

// Deployment identifies a candidate redundancy deployment by provider
// indices into the provider list.
type Deployment []int

// AuditDeployments evaluates the Jaccard similarity of every candidate
// deployment (§4.2.4–§4.2.5) and returns the ranked PIA report: lowest
// similarity (most independent) first.
func AuditDeployments(cfg Config, providers []Provider, deployments []Deployment) (*report.PIAReport, error) {
	return AuditDeploymentsContext(context.Background(), cfg, providers, deployments)
}

// AuditDeploymentsContext is AuditDeployments with cancellation and
// parallelism: deployments are fanned across cfg.Workers goroutines, and
// the run aborts with ctx's error once the context ends. A telemetry trace attached to ctx receives the "pia-pairs"
// phase and how each deployment ran: the pairs_audited,
// pia_cleartext_deployments and pia_psop_deployments counts and the P-SOP
// bandwidth, psop_bytes_sent.
func AuditDeploymentsContext(ctx context.Context, cfg Config, providers []Provider, deployments []Deployment) (*report.PIAReport, error) {
	if len(providers) < 2 {
		return nil, fmt.Errorf("pia: need at least two providers, got %d", len(providers))
	}
	for i, p := range providers {
		if p.Name == "" {
			return nil, fmt.Errorf("pia: provider %d has no name", i)
		}
		if p.Party == nil && len(p.Components) == 0 {
			return nil, fmt.Errorf("pia: provider %q has an empty component-set", p.Name)
		}
	}
	if len(deployments) == 0 {
		return nil, fmt.Errorf("pia: no deployments to audit")
	}
	tr := telemetry.FromContext(ctx)
	endPairs := tr.Start("pia-pairs")
	defer endPairs()

	rep := &report.PIAReport{Title: fmt.Sprintf("%d providers, %d deployments", len(providers), len(deployments))}
	entries := make([]report.PIAEntry, len(deployments))
	workers := cfg.Workers
	if workers > len(deployments) {
		workers = len(deployments)
	}
	if workers <= 1 {
		for i, d := range deployments {
			entry, err := auditOne(ctx, cfg, providers, d)
			if err != nil {
				return nil, err
			}
			entries[i] = *entry
		}
	} else {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			wg       sync.WaitGroup
			next     atomic.Int64
			errMu    sync.Mutex
			firstErr error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(deployments) || cctx.Err() != nil {
						return
					}
					entry, err := auditOne(cctx, cfg, providers, deployments[i])
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						cancel()
						return
					}
					entries[i] = *entry
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	tr.Add("pairs_audited", int64(len(deployments)))
	for _, e := range entries {
		if e.BytesSent > 0 { // a ring ran: P-SOP over non-empty sets always sends
			tr.Add("pia_psop_deployments", 1)
			tr.Add("psop_bytes_sent", e.BytesSent)
		} else {
			tr.Add("pia_cleartext_deployments", 1)
		}
	}
	rep.Entries = entries
	rep.Rank()
	return rep, nil
}

func auditOne(ctx context.Context, cfg Config, providers []Provider, d Deployment) (*report.PIAEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(d) < 2 {
		return nil, fmt.Errorf("pia: deployment %v needs at least two providers", d)
	}
	names := make([]string, len(d))
	sets := make([][]string, len(d))
	proxied := false
	for i, idx := range d {
		if idx < 0 || idx >= len(providers) {
			return nil, fmt.Errorf("pia: deployment references unknown provider %d", idx)
		}
		names[i] = providers[idx].Name
		sets[i] = providers[idx].Components
		proxied = proxied || providers[idx].Party != nil
	}

	start := time.Now()
	entry := &report.PIAEntry{Providers: names}
	if !proxied {
		inter, union, err := psi.CleartextCardinality(sets)
		if err != nil {
			return nil, err
		}
		if union > 0 {
			entry.Jaccard = float64(inter) / float64(union)
		}
		entry.Elapsed = time.Since(start)
		return entry, nil
	}
	parties := make([]psi.Party, len(d))
	for i, idx := range d {
		if p := providers[idx]; p.Party != nil {
			parties[i] = p.Party(len(d))
		} else {
			parties[i] = psi.NewParty(sets[i], cfg.Workers)
		}
	}
	res, err := psi.Ring(ctx, parties)
	if err != nil {
		return nil, err
	}
	if entry.Jaccard, err = res.Jaccard(); err != nil {
		return nil, err
	}
	entry.BytesSent = res.Stats.BytesSent
	entry.Elapsed = time.Since(start)
	return entry, nil
}

// AllPairs enumerates every two-provider deployment over n providers.
func AllPairs(n int) []Deployment {
	var out []Deployment
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Deployment{i, j})
		}
	}
	return out
}

// AllTriples enumerates every three-provider deployment over n providers.
func AllTriples(n int) []Deployment {
	var out []Deployment
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				out = append(out, Deployment{i, j, k})
			}
		}
	}
	return out
}

// NormalizeProvider builds a Provider from raw dependency records using the
// §4.2.3 normalization rules.
func NormalizeProvider(name string, n *deps.Normalizer, records []deps.Record) Provider {
	set := n.ComponentSetFromRecords(records)
	return Provider{Name: name, Components: set.Sorted()}
}

// DeploymentKey renders a deployment's provider names "A & B & C".
func DeploymentKey(names []string) string { return strings.Join(names, " & ") }
