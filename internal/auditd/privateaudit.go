package auditd

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"indaas/internal/pia"
	"indaas/internal/report"
)

// Private independence audits (§4.2) behind the daemon: POST
// /v1/private-audits runs internal/pia as a run closure sharing the queue,
// worker pool, content-addressed caches, coalescing, cancellation and crash
// journal with audit and recommendation jobs. Providers register once under
// POST /v1/providers (providers.go). Where a dataset lives picks the
// protocol, not the request: a deployment of datasets the daemon holds
// (registered or inline) is counted in cleartext, since the trusted auditor
// already has every set, and a deployment with a proxied provider runs the
// P-SOP ring. Both are exact, so jobs are content-addressed by the providers'
// dataset *fingerprints* — inline, registered or proxied alike — and a
// repeated cross-provider audit, by any tenant, hits cache.

// ProviderWire is one provider dataset in a private-audit request: inline
// when Components is non-empty, otherwise a reference to a dataset
// registered under POST /v1/providers.
type ProviderWire struct {
	Name       string   `json:"name"`
	Components []string `json:"components,omitempty"`
}

// PrivateAuditRequest is the body of POST /v1/private-audits: audit the
// pairwise (or listed) independence of provider datasets (§4.2).
type PrivateAuditRequest struct {
	// Title names the report; like audit titles it does not contribute to
	// the cache key.
	Title string `json:"title,omitempty"`
	// Providers are the datasets to audit: inline (Components set) or
	// references to registered datasets (Components empty). At least two.
	Providers []ProviderWire `json:"providers"`
	// Deployments lists candidate deployments as provider-name lists (each
	// at least a pair). Empty means audit every provider pair.
	Deployments [][]string `json:"deployments,omitempty"`
	// Workers parallelizes the deployments and the P-SOP encryption loops.
	// Parallelism never changes the report, so like Title it stays
	// out of the cache key; 0 means the server picks (one per CPU).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps the job's run time; same semantics as audit jobs.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// providerRef is a provider's identity inside the canonical form: its name
// and dataset fingerprint — never the components, which keeps cache keys
// stable across inline and registered submissions of the same dataset.
type providerRef struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fp"`
}

// normalizedPrivate is the canonical, defaults-applied form the cache key
// hashes. Op keeps private-audit keys disjoint from the other job kinds.
type normalizedPrivate struct {
	Op          string        `json:"op"` // always "private-audit"
	Providers   []providerRef `json:"providers"`
	Deployments [][]string    `json:"deployments"`

	infos []ProviderInfo // Providers as the response shows them; not in the key
}

// key derives the content address of the normalized private audit.
func (n *normalizedPrivate) key() string { return canonicalKey(n) }

// normalize validates the request and produces the canonical form plus the
// resolved pia inputs. lookup resolves referenced (non-inline) providers to
// the serving node's registry entries.
func (r *PrivateAuditRequest) normalize(lookup func(string) (registeredProvider, bool)) (normalizedPrivate, pia.Config, []pia.Provider, []pia.Deployment, error) {
	n := normalizedPrivate{Op: "private-audit"}
	var cfg pia.Config
	if len(r.Providers) < 2 {
		return n, cfg, nil, nil, fmt.Errorf("auditd: need at least two providers, got %d", len(r.Providers))
	}
	if r.Workers < 0 || r.TimeoutMS < 0 {
		return n, cfg, nil, nil, fmt.Errorf("auditd: negative option")
	}
	cfg.Workers = r.Workers
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) // pia runs 0 or 1 worker sequentially
	}

	// Resolve every provider, then sort them by name for a canonical order.
	seen := make(map[string]bool, len(r.Providers))
	regs := make([]registeredProvider, 0, len(r.Providers))
	for i, p := range r.Providers {
		if p.Name == "" {
			return n, cfg, nil, nil, fmt.Errorf("auditd: provider %d has no name", i)
		}
		if seen[p.Name] {
			return n, cfg, nil, nil, fmt.Errorf("auditd: duplicate provider %q", p.Name)
		}
		seen[p.Name] = true
		var reg registeredProvider
		if len(p.Components) > 0 {
			c, err := normalizeComponents(p.Components)
			if err != nil {
				return n, cfg, nil, nil, fmt.Errorf("auditd: provider %q: %w", p.Name, err)
			}
			reg = held(p.Name, c)
		} else {
			var ok bool
			if reg, ok = lookup(p.Name); !ok {
				return n, cfg, nil, nil, fmt.Errorf("auditd: unknown provider %q (not registered and no inline components)", p.Name)
			}
		}
		regs = append(regs, reg)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	provs := make([]pia.Provider, len(regs))
	index := make(map[string]int, len(regs))
	for i, reg := range regs {
		provs[i] = pia.Provider{Name: reg.Name, Components: reg.Components}
		if reg.Endpoint != "" {
			provs[i].Party = reg.party
		}
		index[reg.Name] = i
		n.Providers = append(n.Providers, providerRef{Name: reg.Name, Fingerprint: reg.Fingerprint})
		n.infos = append(n.infos, reg.info())
	}

	// Canonicalize the deployment list: names sorted within each deployment,
	// the list sorted and deduplicated. The report is ranked after auditing,
	// so canonical order cannot change the result.
	var canon [][]string
	if len(r.Deployments) == 0 {
		for i := 0; i < len(provs); i++ {
			for j := i + 1; j < len(provs); j++ {
				canon = append(canon, []string{provs[i].Name, provs[j].Name})
			}
		}
	} else {
		for di, d := range r.Deployments {
			if len(d) < 2 {
				return n, cfg, nil, nil, fmt.Errorf("auditd: deployment %d needs at least two providers", di)
			}
			names := append([]string(nil), d...)
			sort.Strings(names)
			for i, name := range names {
				if _, ok := index[name]; !ok {
					return n, cfg, nil, nil, fmt.Errorf("auditd: deployment %d references unknown provider %q", di, name)
				}
				if i > 0 && names[i-1] == name {
					return n, cfg, nil, nil, fmt.Errorf("auditd: deployment %d lists provider %q twice", di, name)
				}
			}
			canon = append(canon, names)
		}
		sort.Slice(canon, func(i, j int) bool { return strings.Join(canon[i], "\x00") < strings.Join(canon[j], "\x00") })
		dst := canon[:0]
		for i, d := range canon {
			if i > 0 && strings.Join(canon[i-1], "\x00") == strings.Join(d, "\x00") {
				continue
			}
			dst = append(dst, d)
		}
		canon = dst
	}
	n.Deployments = canon
	deployments := make([]pia.Deployment, len(canon))
	for i, d := range canon {
		dep := make(pia.Deployment, len(d))
		for j, name := range d {
			dep[j] = index[name]
		}
		deployments[i] = dep
	}
	return n, cfg, provs, deployments, nil
}

// privateAuditKind is the private independence audit (§4.2): POST
// /v1/private-audits, a PrivateAuditRequest in, a PrivateAuditResponse out.
var privateAuditKind = &jobKind{
	name:       KindPrivateAudit,
	route:      "/v1/private-audits",
	hint:       "a private-audit job; use PrivateAuditResult",
	markers:    []string{"entries"},
	newRequest: func() jobRequest { return new(PrivateAuditRequest) },
	decodeResult: func(obj []byte, title string) (any, error) {
		pia := new(PrivateAuditResponse)
		err := json.Unmarshal(obj, pia)
		pia.Title = title
		return pia, err
	},
}

// PrivateAudit validates and accepts a private audit, returning the new
// job's status. Private-audit jobs share the audit queue, worker pool,
// result caches and cancellation plumbing: poll and fetch them through the
// same /v1/audits/{id} endpoints.
func (s *Server) PrivateAudit(req *PrivateAuditRequest) (JobStatus, error) {
	return s.submitJob(privateAuditKind, req, origin{})
}

// prepare readies a private audit: providers resolve against this node's
// registry, and the run closure drives the protocol rounds — supervising the
// ring over any proxied provider's proxy.
func (r *PrivateAuditRequest) prepare(s *Server) (*preparedJob, error) {
	n, cfg, provs, deployments, err := r.normalize(s.lookupProvider)
	if err != nil {
		return nil, &statusErr{code: 400, err: err}
	}
	// The request is self-contained only when every provider inlines its
	// components; a registry reference resolves against THIS node's provider
	// registry and must not be forwarded to a peer that may lack it.
	inline := true
	for _, p := range r.Providers {
		inline = inline && len(p.Components) > 0
	}
	return &preparedJob{title: r.Title, timeoutMS: r.TimeoutMS, accepted: &s.m.PrivateAudits, Workload: Workload{
		Key:       n.key(),
		NoForward: !inline,
		Run: func(ctx context.Context) (any, error) {
			start := time.Now()
			rep, err := pia.AuditDeploymentsContext(ctx, cfg, provs, deployments)
			if err != nil {
				return nil, err
			}
			s.m.PrivatePairs.Add(int64(len(deployments)))
			return privateAuditResponseFromReport(rep, n.infos, time.Since(start)), nil
		},
	}}, nil
}

// PrivateAuditResponse is the wire form of a completed private audit. Its
// JSON is stable and NaN-safe: values that could be NaN or infinite are
// omitted rather than encoded, which encoding/json rejects.
type PrivateAuditResponse struct {
	Title string `json:"title,omitempty"`
	// Providers identifies the audited datasets by fingerprint and size —
	// never by components.
	Providers []ProviderInfo `json:"providers"`
	// Pairs is how many deployments (pairs or larger groups) were audited.
	Pairs     int                     `json:"pairs"`
	Entries   []PrivateAuditEntryWire `json:"entries"`
	ElapsedNS int64                   `json:"elapsed_ns"`
	// PairsPerSec is the batch throughput; omitted when the elapsed time
	// was immeasurably small (a +Inf rate is not representable in JSON).
	PairsPerSec *float64 `json:"pairs_per_sec,omitempty"`
}

// PrivateAuditEntryWire is one audited deployment, ranked most independent
// (lowest Jaccard) first. How it was computed — cleartext or P-SOP, and the
// bytes a ring sent — is in the job's trace counts, not here: one address
// names one result, whichever path computed it.
type PrivateAuditEntryWire struct {
	Providers []string `json:"providers"`
	// Jaccard is the exact similarity; omitted rather than NaN should a
	// run ever fail to compute it.
	Jaccard   *float64 `json:"jaccard,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns"`
}

// privateAuditResponseFromReport converts a pia report to its wire form.
func privateAuditResponseFromReport(rep *report.PIAReport, providers []ProviderInfo, elapsed time.Duration) *PrivateAuditResponse {
	out := &PrivateAuditResponse{
		Providers: providers,
		Pairs:     len(rep.Entries),
		ElapsedNS: elapsed.Nanoseconds(),
	}
	for _, e := range rep.Entries {
		w := PrivateAuditEntryWire{Providers: e.Providers, ElapsedNS: e.Elapsed.Nanoseconds()}
		if !isNaN(e.Jaccard) {
			j := e.Jaccard
			w.Jaccard = &j
		}
		out.Entries = append(out.Entries, w)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rate := float64(out.Pairs) / secs
		out.PairsPerSec = &rate
	}
	return out
}

// isNaN avoids importing math for one comparison: NaN is the only value
// that differs from itself.
func isNaN(f float64) bool { return f != f }
