package auditd

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"indaas/internal/crypto/commutative"
	"indaas/internal/psi"
)

// The provider side of a private audit (§4.2, Fig. 5b): a provider keeps its
// component-set behind its own P-SOP proxy — one ring party — and registers
// the proxy's endpoint. The daemon supervises each ring over the proxies: it
// relays the encrypted datasets and counts |∩| and |∪| on ciphertexts.

// maxProxyRuns bounds a proxy's open runs (a supervisor needs one per
// deployment it audits at once); opening one more drops the oldest. maxRunID
// bounds a run id's length (a supervisor's ids are 32 hex digits).
const (
	maxProxyRuns = 64
	maxRunID     = 64
)

// PSOPStep is the body of POST /v1/psop/{run}: one step of a ring of Ring
// parties. No elements asks the proxy to encrypt its own set; elements
// (32-byte points) ask it to re-encrypt another party's dataset.
type PSOPStep struct {
	Ring     int      `json:"ring"`
	Elements [][]byte `json:"elements,omitempty"`
}

// PSOPReply answers a step with its points and the proxy's dataset
// fingerprint, by which the supervisor tells a changed dataset.
type PSOPReply struct {
	Fingerprint string   `json:"fingerprint"`
	Elements    [][]byte `json:"elements"`
}

// proxy is one provider's P-SOP party, served over HTTP.
type proxy struct {
	*http.ServeMux
	components []string
	info       ProviderInfo

	mu     sync.Mutex
	runs   map[string]*proxyRun
	opened uint64 // runs opened so far
}

// proxyRun is one ring's party: a fresh key for one own-set step and ring−1
// re-encryptions, forgotten with the run after the last.
type proxyRun struct {
	mu    sync.Mutex // one step at a time: the party's permutation is sequential
	party psi.Party
	ring  int
	hops  int    // re-encryptions taken
	seq   uint64 // the lowest open seq is the oldest run
}

// NewProxy returns the HTTP handler of a provider's P-SOP proxy over its
// component-set: GET /v1/psop describes the dataset (fingerprint and count,
// never components) and POST /v1/psop/{run} takes one ring step.
func NewProxy(components []string) (http.Handler, error) {
	c, err := normalizeComponents(components)
	if err != nil {
		return nil, err
	}
	p := &proxy{ServeMux: http.NewServeMux(), components: c, runs: make(map[string]*proxyRun),
		info: ProviderInfo{Fingerprint: providerFingerprint(c), Components: len(c)}}
	p.HandleFunc("GET /v1/psop", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, 200, p.info) })
	p.HandleFunc("POST /v1/psop/{run}", p.handleStep)
	return p, nil
}

func (p *proxy) handleStep(w http.ResponseWriter, r *http.Request) {
	var step PSOPStep
	if !decodeJSON(w, r, &step) {
		return
	}
	out, err := p.step(r.Context(), r.PathValue("run"), &step)
	reply(w, &PSOPReply{Fingerprint: p.info.Fingerprint, Elements: out}, err)
}

// step runs one ring step of run id. Anything malformed, out of turn or
// refused by the cipher is a 400 that names the run.
func (p *proxy) step(ctx context.Context, id string, step *PSOPStep) ([][]byte, error) {
	var run *proxyRun
	in, err := points(step.Elements)
	switch {
	case id == "" || len(id) > maxRunID:
		err = fmt.Errorf("a run id has 1 to %d bytes", maxRunID)
	case step.Ring < 2:
		err = fmt.Errorf("a ring of %d parties, want at least two", step.Ring)
	case err == nil:
		run, err = p.open(id, step.Ring, len(in) == 0)
	}
	if err == nil {
		run.mu.Lock()
		defer run.mu.Unlock()
		if len(in) == 0 {
			in, err = run.party.Own(ctx)
		} else if in, err = run.party.Reencrypt(ctx, in); err != nil {
			p.mu.Lock() // a refused point is a dishonest predecessor: the run is over
			if p.runs[id] == run {
				delete(p.runs, id)
			}
			p.mu.Unlock()
		}
	}
	if err != nil {
		return nil, &statusErr{code: 400, err: fmt.Errorf("proxy: run %q: %w", id, err)}
	}
	out := make([][]byte, len(in))
	for i := range in {
		out[i] = in[i][:]
	}
	return out, nil
}

// points decodes wire elements, each one 32-byte point.
func points(elems [][]byte) ([]commutative.Point, error) {
	out := make([]commutative.Point, len(elems))
	for i, e := range elems {
		if len(e) != commutative.Size {
			return nil, fmt.Errorf("element %d has %d bytes, want %d", i, len(e), commutative.Size)
		}
		out[i] = commutative.Point(e)
	}
	return out, nil
}

// open takes one step's turn in run id. The own-set step opens the run; a
// ring asks every party for its own set first, so a re-encryption of an
// unknown run (closed, evicted or never opened) is refused rather than served
// under a fresh key. The ring−1st re-encryption closes the run.
func (p *proxy) open(id string, ring int, own bool) (*proxyRun, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	run := p.runs[id]
	switch {
	case run == nil && !own:
		return nil, fmt.Errorf("no open run; a run begins with its own-set step")
	case run == nil:
		if len(p.runs) >= maxProxyRuns {
			oldest := id
			for rid, r := range p.runs {
				if oldest == id || r.seq < p.runs[oldest].seq {
					oldest = rid
				}
			}
			delete(p.runs, oldest)
		}
		p.opened++
		run = &proxyRun{party: psi.NewParty(p.components, runtime.GOMAXPROCS(0)), ring: ring, seq: p.opened}
		p.runs[id] = run
	case run.ring != ring:
		return nil, fmt.Errorf("a ring of %d parties, the run began with %d", ring, run.ring)
	case own:
		return nil, fmt.Errorf("a second own-set step")
	default:
		if run.hops++; run.hops == ring-1 {
			delete(p.runs, id)
		}
	}
	return run, nil
}
