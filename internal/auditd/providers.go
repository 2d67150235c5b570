package auditd

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"indaas/internal/crypto/commutative"
	"indaas/internal/psi"
	"indaas/internal/store"
)

// The provider registry. A provider registers its components — the daemon
// then holds them: the trusted-auditor mode — or its P-SOP proxy's endpoint
// (proxy.go), and the daemon holds only the dataset's fingerprint and count.

// providerKeyPrefix namespaces registered providers in the store. KindMeta
// entries are never evicted, so a registration survives restarts for as
// long as the operator keeps it.
const providerKeyPrefix = "pia/provider/"

func providerKey(name string) string { return providerKeyPrefix + name }

// RegisterProviderRequest is the body of POST /v1/providers: a provider's
// normalized component-set (§4.2.3) or the endpoint of the proxy that keeps
// it, registered once to be referenced by name in later private audits.
type RegisterProviderRequest struct {
	Name       string   `json:"name"`
	Components []string `json:"components,omitempty"`
	Endpoint   string   `json:"endpoint,omitempty"`
}

// ProviderInfo describes a registered dataset without revealing it: name,
// content fingerprint and component count — all GET /v1/providers exposes,
// and all a proxy tells its supervisor.
type ProviderInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Components  int    `json:"components"`
}

// registeredProvider is a registry entry and its disk form: a dataset the
// daemon holds (Components, normalized) or a proxy keeps (Endpoint).
type registeredProvider struct {
	Name        string   `json:"name"`
	Components  []string `json:"components,omitempty"`
	Endpoint    string   `json:"endpoint,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	Count       int      `json:"count,omitempty"`
}

// held returns the entry for a normalized component-set the daemon holds.
func held(name string, components []string) registeredProvider {
	return registeredProvider{Name: name, Components: components, Fingerprint: providerFingerprint(components), Count: len(components)}
}

func (p registeredProvider) info() ProviderInfo {
	return ProviderInfo{Name: p.Name, Fingerprint: p.Fingerprint, Components: p.Count}
}

// providerRegistry holds the registered providers under its own lock, so
// registering never waits on the job table.
type providerRegistry struct {
	regMu      sync.Mutex
	registered map[string]registeredProvider
}

func (r *providerRegistry) setProvider(p registeredProvider) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	r.registered[p.Name] = p
}

// lookupProvider resolves a registered provider for request normalization.
func (r *providerRegistry) lookupProvider(name string) (registeredProvider, bool) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	p, ok := r.registered[name]
	return p, ok
}

// Providers lists the registered datasets (fingerprints and counts only),
// sorted by name.
func (r *providerRegistry) Providers() []ProviderInfo {
	r.regMu.Lock()
	out := make([]ProviderInfo, 0, len(r.registered))
	for _, p := range r.registered {
		out = append(out, p.info())
	}
	r.regMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// restore reloads the registry at boot, before any request or RecoverJobs
// replay. Unreadable entries are dropped with a log line, not a failed boot.
func (r *providerRegistry) restoreProviders(st *store.Store) {
	for _, e := range st.Entries() {
		if e.Kind != store.KindMeta || !strings.HasPrefix(e.Key, providerKeyPrefix) {
			continue
		}
		var p registeredProvider
		blob, _, ok, err := st.Get(e.Key)
		if err == nil && ok {
			err = json.Unmarshal(blob, &p)
		}
		if err == nil && ok && p.Endpoint == "" {
			p.Components, err = normalizeComponents(p.Components)
			p = held(p.Name, p.Components)
		}
		if err != nil || !ok || p.Name == "" || p.Fingerprint == "" || p.Count <= 0 {
			log.Printf("auditd: dropping provider record %s: ok=%v err=%v", e.Key, ok, err)
			continue
		}
		r.setProvider(p)
	}
}

// normalizeComponents canonicalizes a component-set: sorted, deduplicated,
// no empty strings.
func normalizeComponents(components []string) ([]string, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("auditd: provider has an empty component-set")
	}
	out := append([]string(nil), components...)
	sort.Strings(out)
	dst := out[:0]
	var prev string
	for i, c := range out {
		if c == "" {
			return nil, fmt.Errorf("auditd: empty component name")
		}
		if i > 0 && c == prev {
			continue
		}
		dst = append(dst, c)
		prev = c
	}
	return dst, nil
}

// providerFingerprint content-addresses a normalized component-set. The
// "provider" op keeps these fingerprints disjoint from job cache keys. A
// proxy publishes the same fingerprint, so one dataset has one address
// whether the daemon holds it or its proxy does.
func providerFingerprint(components []string) string {
	return canonicalKey(&struct {
		Op         string   `json:"op"`
		Components []string `json:"components"`
	}{Op: "provider", Components: components})
}

// RegisterProvider validates and registers a provider — its components, or
// its proxy's endpoint, whose dataset description it fetches — persisting the
// entry durably (when the service has a store and is not degraded) and
// replacing any prior one under the same name. A changed dataset has a new
// fingerprint, so stale cached audits are simply never addressed again.
func (s *Server) RegisterProvider(req *RegisterProviderRequest) (ProviderInfo, error) {
	bad := func(format string, args ...any) (ProviderInfo, error) {
		return ProviderInfo{}, &statusErr{code: 400, err: fmt.Errorf("auditd: "+format, args...)}
	}
	if req.Name == "" {
		return bad("provider needs a name")
	}
	if strings.ContainsAny(req.Name, "/\x00") {
		return bad("provider name %q may not contain '/'", req.Name)
	}
	p := registeredProvider{Name: req.Name, Endpoint: strings.TrimRight(req.Endpoint, "/")}
	switch u, err := url.Parse(p.Endpoint); {
	case p.Endpoint == "":
		components, err := normalizeComponents(req.Components)
		if err != nil {
			return bad("provider %q: %w", req.Name, err)
		}
		p = held(req.Name, components)
	case len(req.Components) > 0:
		return bad("provider %q: give components or an endpoint, not both", req.Name)
	case err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "":
		return bad("endpoint %q is not an http(s) URL", req.Endpoint)
	default: // fetch the proxy's description; unreachable or empty is a 502
		ctx, cancel := context.WithTimeout(s.baseCtx, 10*time.Second)
		defer cancel()
		var info ProviderInfo
		err = proxyClient(p.Endpoint).do(ctx, http.MethodGet, "/v1/psop", nil, &info)
		if err == nil && (info.Fingerprint == "" || info.Components <= 0) {
			err = fmt.Errorf("it describes no dataset")
		}
		if err != nil {
			return ProviderInfo{}, &statusErr{code: 502, err: fmt.Errorf("auditd: proxy %s: %w", p.Endpoint, err)}
		}
		p.Fingerprint, p.Count = info.Fingerprint, info.Components
	}

	// Persist before publishing, like job journaling: once a client sees the
	// registration acknowledged it should survive a crash. Degraded mode
	// registers memory-only (mirroring degraded ingests).
	if s.store != nil && s.breaker.allow() {
		blob, err := json.Marshal(&p)
		if err == nil {
			if _, err := s.store.Put(providerKey(req.Name), store.KindMeta, blob); err != nil {
				s.storeFailure("persisting provider "+req.Name, err)
			} else {
				s.storeOK()
			}
		}
	} else if s.store != nil {
		s.m.StoreSkippedWrites.Add(1)
	}
	s.setProvider(p)
	return p.info(), nil
}

// proxyClient is a client for a provider's proxy. It never retries: a step
// whose fate is unknown may have spent the run's turn.
func proxyClient(endpoint string) *Client {
	return &Client{bases: []string{endpoint}, hc: http.DefaultClient, Retry: RetryPolicy{MaxAttempts: 1}}
}

// party is a proxied provider's party for one ring, under a fresh random
// 128-bit run id.
func (p registeredProvider) party(ring int) psi.Party {
	var id [16]byte
	cryptorand.Read(id[:])
	return &remoteParty{reg: p, ring: ring, run: hex.EncodeToString(id[:]), c: proxyClient(p.Endpoint)}
}

// remoteParty is a proxied provider's party in one ring. Every step is one
// POST to the proxy, and every reply is checked against the registration
// before the ring relays it: the registered fingerprint, and as many 32-byte
// points as were sent (the registered count for the own set).
type remoteParty struct {
	reg  registeredProvider
	ring int
	run  string
	c    *Client
}

func (p *remoteParty) Own(ctx context.Context) ([]commutative.Point, error) {
	return p.step(ctx, nil, p.reg.Count)
}

func (p *remoteParty) Reencrypt(ctx context.Context, in []commutative.Point) ([]commutative.Point, error) {
	return p.step(ctx, in, len(in))
}

func (p *remoteParty) step(ctx context.Context, in []commutative.Point, want int) ([]commutative.Point, error) {
	req := PSOPStep{Ring: p.ring}
	for i := range in {
		req.Elements = append(req.Elements, in[i][:])
	}
	var rep PSOPReply
	var out []commutative.Point
	err := p.c.do(ctx, http.MethodPost, "/v1/psop/"+p.run, &req, &rep)
	switch {
	case err != nil:
	case rep.Fingerprint != p.reg.Fingerprint:
		err = fmt.Errorf("serves dataset %.12s…, registered %.12s…; register it again", rep.Fingerprint, p.reg.Fingerprint)
	case len(rep.Elements) != want:
		err = fmt.Errorf("answered %d points, want %d; register it again", len(rep.Elements), want)
	default:
		out, err = points(rep.Elements)
	}
	if err != nil {
		return nil, fmt.Errorf("auditd: provider %q: %w", p.reg.Name, err)
	}
	return out, nil
}
