// Package pia implements Private Independence Auditing (§4.2): Jaccard
// similarity over normalized component-sets, computed either exactly through
// the P-SOP private set intersection cardinality protocol, approximately
// through MinHash + P-SOP for large component-sets (§4.2.4), or through the
// Kissner–Song baseline (§6.3.2). A cleartext mode exists for validation and
// for the SIA-vs-PIA comparison of Fig. 9.
//
// Security model (§4.2.1): providers are honest but curious and do not
// collude. Under ProtocolPSOP and ProtocolKS each provider learns only the
// intersection cardinality |∩| (and, for P-SOP, the union cardinality |∪|)
// of the audited component-sets — equivalently the Jaccard similarity — and
// never another provider's raw components. MinHash compression preserves
// that boundary by running the protocols over signature elements (§4.2.4).
// ProtocolCleartext deliberately has no privacy: it is the trusted-auditor
// comparison point of §6.3.3 and the validation oracle for the private
// protocols. A provider whose dataset never enters this process takes part
// through its own psi.Party (Provider.Party), which exact P-SOP alone can
// audit.
package pia

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indaas/internal/deps"
	"indaas/internal/minhash"
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
	// the given size; Components stays empty. Only exact P-SOP can audit
	// such a provider: every other mode reads the components.
	Party func(ring int) psi.Party
}

// Protocol selects the private computation mechanism.
type Protocol int

const (
	// ProtocolPSOP uses the commutative-encryption ring protocol.
	ProtocolPSOP Protocol = iota
	// ProtocolKS uses the Kissner–Song-style baseline. Because KS yields
	// only the intersection cardinality, the Jaccard similarity is always
	// estimated via MinHash signatures under this protocol (the MinHashM
	// default applies when unset).
	ProtocolKS
	// ProtocolCleartext computes the same quantities without privacy —
	// the trusted-auditor comparison point of §6.3.3.
	ProtocolCleartext
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolPSOP:
		return "p-sop"
	case ProtocolKS:
		return "ks"
	case ProtocolCleartext:
		return "cleartext"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config tunes a PIA run.
type Config struct {
	Protocol Protocol
	// Bits is the Paillier key size of the KS baseline (default 1024).
	// P-SOP's X25519 cipher has one fixed size.
	Bits int
	// MinHashM, when non-zero, estimates Jaccard from m-function MinHash
	// signatures instead of the full component-sets (§4.2.4). Required
	// (defaulting to 512) under ProtocolKS.
	MinHashM int
	// MinHashThreshold, when non-zero, switches to MinHash automatically for
	// providers whose component-sets exceed the threshold ("if cloud
	// providers ... have large component-sets", §4.2.4). MinHashM (or its
	// default 512) gives the signature width.
	MinHashThreshold int
	// KSBlindBits forwards to psi.KSConfig.BlindBits.
	KSBlindBits int
	// Workers bounds how many deployments are audited concurrently and is
	// also the parallelism of MinHash signing and the P-SOP encryption
	// loops inside each pair. Minima and cardinalities are order-free, so
	// the report is identical for every worker count; 0 or 1 is the
	// sequential path.
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
// parallelism: deployments are fanned across cfg.Workers goroutines, each
// running the full per-pair protocol, and the run aborts with ctx's error
// once the context ends. A telemetry trace attached to ctx receives the
// "pia-pairs" phase and the pairs_audited count.
func AuditDeploymentsContext(ctx context.Context, cfg Config, providers []Provider, deployments []Deployment) (*report.PIAReport, error) {
	if len(providers) < 2 {
		return nil, fmt.Errorf("pia: need at least two providers, got %d", len(providers))
	}
	for i, p := range providers {
		if p.Name == "" {
			return nil, fmt.Errorf("pia: provider %d has no name", i)
		}
		if p.Party != nil {
			if cfg.Protocol != ProtocolPSOP || cfg.MinHashM > 0 || cfg.MinHashThreshold > 0 {
				return nil, fmt.Errorf("pia: provider %q holds its own dataset; only exact p-sop can audit it", p.Name)
			}
			continue
		}
		if len(p.Components) == 0 {
			return nil, fmt.Errorf("pia: provider %q has an empty component-set", p.Name)
		}
	}
	if len(deployments) == 0 {
		return nil, fmt.Errorf("pia: no deployments to audit")
	}
	tr := telemetry.FromContext(ctx)
	endPairs := tr.Start("pia-pairs")
	defer endPairs()

	rep := &report.PIAReport{Title: fmt.Sprintf("%d providers, %d deployments (%s)",
		len(providers), len(deployments), cfg.Protocol)}
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
	maxSet := 0
	for i, idx := range d {
		if idx < 0 || idx >= len(providers) {
			return nil, fmt.Errorf("pia: deployment references unknown provider %d", idx)
		}
		names[i] = providers[idx].Name
		sets[i] = providers[idx].Components
		if len(sets[i]) > maxSet {
			maxSet = len(sets[i])
		}
	}

	useMinHash := cfg.MinHashM > 0 ||
		cfg.Protocol == ProtocolKS ||
		(cfg.MinHashThreshold > 0 && maxSet > cfg.MinHashThreshold)
	m := cfg.MinHashM
	if useMinHash && m == 0 {
		m = 512
	}

	start := time.Now()
	var jaccard float64
	var bytes int64
	switch {
	case cfg.Protocol == ProtocolCleartext && !useMinHash:
		inter, union, err := psi.CleartextCardinality(sets)
		if err != nil {
			return nil, err
		}
		if union > 0 {
			jaccard = float64(inter) / float64(union)
		}
	case cfg.Protocol == ProtocolCleartext && useMinHash:
		sigs, err := signAll(sets, m, cfg.Workers)
		if err != nil {
			return nil, err
		}
		est, err := minhash.Estimate(sigs...)
		if err != nil {
			return nil, err
		}
		jaccard = est
	case cfg.Protocol == ProtocolPSOP && !useMinHash:
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
		j, err := res.Jaccard()
		if err != nil {
			return nil, err
		}
		jaccard = j
		bytes = res.Stats.BytesSent
	case cfg.Protocol == ProtocolPSOP && useMinHash:
		// §4.2.4: run P-SOP over the signature elements; the agreement
		// count is |∩ of signatures| and J ≈ |∩|/m.
		sigSets, err := signatureElements(sets, m, cfg.Workers)
		if err != nil {
			return nil, err
		}
		res, err := psi.PSOPContext(ctx, psi.PSOPConfig{Workers: cfg.Workers}, sigSets)
		if err != nil {
			return nil, err
		}
		jaccard = float64(res.Intersection) / float64(m)
		bytes = res.Stats.BytesSent
	case cfg.Protocol == ProtocolKS:
		sigSets, err := signatureElements(sets, m, cfg.Workers)
		if err != nil {
			return nil, err
		}
		res, err := psi.KS(psi.KSConfig{Bits: cfg.Bits, BlindBits: cfg.KSBlindBits}, sigSets)
		if err != nil {
			return nil, err
		}
		jaccard = float64(res.Intersection) / float64(m)
		bytes = res.Stats.BytesSent
	default:
		return nil, fmt.Errorf("pia: unknown protocol %v", cfg.Protocol)
	}
	return &report.PIAEntry{
		Providers: names,
		Jaccard:   jaccard,
		Estimated: useMinHash,
		BytesSent: bytes,
		Elapsed:   time.Since(start),
	}, nil
}

func signAll(sets [][]string, m, workers int) ([]minhash.Signature, error) {
	h, err := minhash.NewHasher(m)
	if err != nil {
		return nil, err
	}
	out := make([]minhash.Signature, len(sets))
	for i, s := range sets {
		sig, err := h.SignParallel(s, workers)
		if err != nil {
			return nil, err
		}
		out[i] = sig
	}
	return out, nil
}

func signatureElements(sets [][]string, m, workers int) ([][]string, error) {
	sigs, err := signAll(sets, m, workers)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(sigs))
	for i, sig := range sigs {
		out[i] = sig.Elements()
	}
	return out, nil
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
