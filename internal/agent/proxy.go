package agent

import (
	cryptorand "crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	mathrand "math/rand"
	"sync"
	"time"

	"indaas/internal/audittrail"
	"indaas/internal/crypto/commutative"
	"indaas/internal/wire"
)

// This file implements the PIA deployment of Fig. 5b over TCP: each cloud
// provider runs a Proxy next to its dependency acquisition modules; the
// auditing agent (or any supervisor) kicks off the P-SOP ring protocol by
// telling every proxy the ring membership, then collects the fully-encrypted
// datasets and counts |∩| and |∪| on ciphertexts. The supervisor never sees
// plaintext components; proxies never see each other's plaintexts either —
// only commutatively re-encrypted blobs (honest-but-curious, no collusion,
// §4.2.1).

// Message types of the PIA flow. Setup and launch are separate phases: a
// proxy must know a run (keys, ring) before any dataset of that run can
// reach it, so the supervisor first registers the run with every proxy and
// only then tells each proxy to launch its own dataset around the ring.
const (
	TypePSOPStart   = "psop-start"   // supervisor → proxy: ring setup
	TypePSOPGo      = "psop-go"      // supervisor → proxy: launch own dataset
	TypePSOPForward = "psop-forward" // proxy → successor: dataset hop
	TypePSOPFinal   = "psop-final"   // final holder → supervisor
	TypePSOPCommit  = "psop-commit"  // proxy → supervisor: signed commitment
	TypePSOPAck     = "psop-ack"     // acknowledgement
)

// PSOPCommit carries a provider's signed dataset commitment (§5.2, "trust
// but leave an audit trail"): the Merkle root of the exact component-set
// fed into this run, signed with the provider's key, so a later meta-audit
// can catch under-declared datasets. Only the root leaves the provider.
type PSOPCommit struct {
	RunID     string `json:"run_id"`
	Provider  string `json:"provider"`
	Position  int    `json:"position"`
	Root      []byte `json:"root"`
	Count     int    `json:"count"`
	At        int64  `json:"at"` // Unix seconds
	PublicKey []byte `json:"public_key"`
	Signature []byte `json:"signature"`
}

// PSOPGo tells a proxy to inject its own dataset into the ring.
type PSOPGo struct {
	RunID string `json:"run_id"`
}

// PSOPStart tells a proxy its ring position for one protocol run.
type PSOPStart struct {
	RunID string `json:"run_id"`
	// Ring lists the proxy addresses in ring order.
	Ring []string `json:"ring"`
	// Position is this proxy's index in Ring.
	Position int `json:"position"`
	// Supervisor is the address final datasets are reported to... the
	// final holder dials the supervisor's collector listener.
	Supervisor string `json:"supervisor"`
}

// PSOPForward carries one dataset hop around the ring.
type PSOPForward struct {
	RunID string `json:"run_id"`
	// Owner is the ring position whose dataset this is.
	Owner int `json:"owner"`
	// Hops counts how many parties have encrypted the dataset so far.
	Hops int `json:"hops"`
	// Elements are base64-encoded X25519 points.
	Elements []string `json:"elements"`
}

// PSOPFinal delivers a fully-encrypted dataset to the supervisor.
type PSOPFinal struct {
	RunID    string   `json:"run_id"`
	Owner    int      `json:"owner"`
	Elements []string `json:"elements"`
}

// Proxy is one provider's PIA proxy: it holds the provider's normalized
// component-set and participates in P-SOP runs. Every run leaves an audit
// trail: the proxy signs a commitment over the dataset it used (§5.2) and
// reports it to the supervisor alongside the protocol messages.
type Proxy struct {
	srv    *Server
	signer *audittrail.Signer

	mu       sync.Mutex
	name     string
	dataset  []string // normalized, disambiguated lazily per run
	runs     map[string]*proxyRun
	rngSeed  int64
	rngCount int64
}

type proxyRun struct {
	start PSOPStart
	key   *commutative.Key
	perm  *mathrand.Rand
}

// NewProxy starts a PIA proxy serving the provider's component-set.
func NewProxy(addr string, components []string) (*Proxy, error) {
	return NewNamedProxy(addr, "provider", components)
}

// NewNamedProxy starts a proxy with an explicit provider name (used in the
// signed audit-trail commitments).
func NewNamedProxy(addr, name string, components []string) (*Proxy, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("agent: proxy needs a non-empty component-set")
	}
	signer, err := audittrail.NewSigner(name)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		signer:  signer,
		name:    name,
		dataset: append([]string(nil), components...),
		runs:    make(map[string]*proxyRun),
	}
	var seed [8]byte
	if _, err := io.ReadFull(cryptorand.Reader, seed[:]); err != nil {
		return nil, err
	}
	p.rngSeed = int64(binary.LittleEndian.Uint64(seed[:]))
	srv, err := newServer(addr, p.handle)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.srv.Addr() }

// Close shuts the proxy down.
func (p *Proxy) Close() error { return p.srv.Close() }

func (p *Proxy) handle(conn *wire.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case TypePSOPStart:
			var start PSOPStart
			if err := msg.Decode(&start); err != nil {
				_ = conn.SendError(err)
				return
			}
			if err := p.startRun(start); err != nil {
				_ = conn.SendError(err)
				continue
			}
			if err := conn.Send(TypePSOPAck, nil); err != nil {
				return
			}
		case TypePSOPGo:
			var g PSOPGo
			if err := msg.Decode(&g); err != nil {
				_ = conn.SendError(err)
				return
			}
			if err := p.launch(g.RunID); err != nil {
				_ = conn.SendError(err)
				continue
			}
			if err := conn.Send(TypePSOPAck, nil); err != nil {
				return
			}
		case TypePSOPForward:
			var fwd PSOPForward
			if err := msg.Decode(&fwd); err != nil {
				_ = conn.SendError(err)
				return
			}
			if err := p.forward(fwd); err != nil {
				_ = conn.SendError(err)
				continue
			}
			if err := conn.Send(TypePSOPAck, nil); err != nil {
				return
			}
		default:
			_ = conn.SendError(fmt.Errorf("unexpected message %q", msg.Type))
			return
		}
	}
}

// startRun registers the run and prepares this proxy's key material.
func (p *Proxy) startRun(start PSOPStart) error {
	if start.RunID == "" || len(start.Ring) < 2 {
		return fmt.Errorf("agent: malformed P-SOP start")
	}
	if start.Position < 0 || start.Position >= len(start.Ring) {
		return fmt.Errorf("agent: ring position %d out of range", start.Position)
	}
	key, err := commutative.NewKey(cryptorand.Reader)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.runs[start.RunID]; dup {
		return fmt.Errorf("agent: duplicate P-SOP run %q", start.RunID)
	}
	p.rngCount++
	p.runs[start.RunID] = &proxyRun{
		start: start,
		key:   key,
		perm:  mathrand.New(mathrand.NewSource(p.rngSeed + p.rngCount)),
	}
	return nil
}

// launch encrypts the proxy's own dataset, reports the signed commitment to
// the supervisor, and sends the encrypted dataset around the ring.
func (p *Proxy) launch(runID string) error {
	p.mu.Lock()
	run, ok := p.runs[runID]
	dataset := append([]string(nil), p.dataset...)
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("agent: unknown P-SOP run %q", runID)
	}
	if err := p.sendCommitment(run, runID, dataset); err != nil {
		return err
	}
	elems := make([]commutative.Point, 0, len(dataset))
	counts := map[string]int{}
	for _, e := range dataset {
		counts[e]++
		tagged := fmt.Sprintf("%s\x00%d", e, counts[e])
		elems = append(elems, run.key.EncryptElement([]byte(tagged)))
	}
	run.perm.Shuffle(len(elems), func(a, b int) { elems[a], elems[b] = elems[b], elems[a] })
	return p.sendHop(run, PSOPForward{
		RunID:    runID,
		Owner:    run.start.Position,
		Hops:     1,
		Elements: encodeElements(elems),
	})
}

// forward re-encrypts a dataset received from the predecessor and passes it
// along (or to the supervisor once every party has encrypted it).
func (p *Proxy) forward(fwd PSOPForward) error {
	p.mu.Lock()
	run, ok := p.runs[fwd.RunID]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("agent: unknown P-SOP run %q", fwd.RunID)
	}
	elems, err := run.reencrypt(fwd.RunID, fwd.Elements)
	if err != nil {
		return err
	}
	run.perm.Shuffle(len(elems), func(a, b int) { elems[a], elems[b] = elems[b], elems[a] })
	return p.sendHop(run, PSOPForward{
		RunID:    fwd.RunID,
		Owner:    fwd.Owner,
		Hops:     fwd.Hops + 1,
		Elements: encodeElements(elems),
	})
}

// sendCommitment signs the run's dataset and reports the commitment.
func (p *Proxy) sendCommitment(run *proxyRun, runID string, dataset []string) error {
	c, err := p.signer.Commit(runID, dataset, time.Now())
	if err != nil {
		return err
	}
	conn, err := wire.Dial(run.start.Supervisor)
	if err != nil {
		return err
	}
	defer conn.Close()
	return conn.Send(TypePSOPCommit, PSOPCommit{
		RunID:     runID,
		Provider:  p.name,
		Position:  run.start.Position,
		Root:      c.Root,
		Count:     c.Count,
		At:        c.At.Unix(),
		PublicKey: c.PublicKey,
		Signature: c.Signature,
	})
}

func (p *Proxy) sendHop(run *proxyRun, fwd PSOPForward) error {
	k := len(run.start.Ring)
	if fwd.Hops >= k {
		// Every party encrypted: deliver to the supervisor.
		conn, err := wire.Dial(run.start.Supervisor)
		if err != nil {
			return err
		}
		defer conn.Close()
		return conn.Send(TypePSOPFinal, PSOPFinal{RunID: fwd.RunID, Owner: fwd.Owner, Elements: fwd.Elements})
	}
	succ := run.start.Ring[(run.start.Position+1)%k]
	conn, err := wire.Dial(succ)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(TypePSOPForward, fwd); err != nil {
		return err
	}
	return conn.Expect(TypePSOPAck, nil)
}

func encodeElements(elems []commutative.Point) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = base64.StdEncoding.EncodeToString(e[:])
	}
	return out
}

// reencrypt decodes a predecessor's elements and encrypts each under the
// run's key. An element that is not one point, or a low-order point the
// cipher refuses, fails the run: every key maps a low-order point to the
// same value, so forwarding it would plant a match at every party.
func (run *proxyRun) reencrypt(runID string, in []string) ([]commutative.Point, error) {
	out := make([]commutative.Point, len(in))
	for i, s := range in {
		b, err := base64.StdEncoding.DecodeString(s)
		if err == nil {
			out[i], err = run.key.Encrypt(b)
		}
		if err != nil {
			return nil, fmt.Errorf("agent: P-SOP run %q: element %d refused: %w", runID, i, err)
		}
	}
	return out, nil
}

// SupervisePSOP runs one P-SOP round across the given proxy addresses and
// returns |∩| and |∪| counted on the fully-encrypted datasets.
func SupervisePSOP(runID string, proxies []string) (inter, union int, err error) {
	inter, union, _, err = SupervisePSOPWithTrail(runID, proxies)
	return inter, union, err
}

// SupervisePSOPWithTrail additionally collects and verifies each provider's
// signed dataset commitment (§5.2). The supervisor (typically the auditing
// agent) listens on an ephemeral collector port for commitments and final
// datasets; commitments with bad signatures abort the run.
func SupervisePSOPWithTrail(runID string, proxies []string) (inter, union int, commitments []*audittrail.Commitment, err error) {
	k := len(proxies)
	if k < 2 {
		return 0, 0, nil, fmt.Errorf("agent: P-SOP needs at least two proxies")
	}
	finals := make(chan PSOPFinal, k)
	commits := make(chan PSOPCommit, k)
	collector, err := newServer("127.0.0.1:0", func(conn *wire.Conn) {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case TypePSOPFinal:
				var f PSOPFinal
				if err := msg.Decode(&f); err != nil {
					_ = conn.SendError(err)
					return
				}
				if f.RunID == runID {
					finals <- f
				}
			case TypePSOPCommit:
				var c PSOPCommit
				if err := msg.Decode(&c); err != nil {
					_ = conn.SendError(err)
					return
				}
				if c.RunID == runID {
					commits <- c
				}
			default:
				_ = conn.SendError(fmt.Errorf("unexpected message %q", msg.Type))
				return
			}
		}
	})
	if err != nil {
		return 0, 0, nil, err
	}
	defer collector.Close()

	// Phase 1: register the run with every proxy.
	for i, addr := range proxies {
		conn, err := wire.Dial(addr)
		if err != nil {
			return 0, 0, nil, err
		}
		startErr := conn.Send(TypePSOPStart, PSOPStart{
			RunID:      runID,
			Ring:       proxies,
			Position:   i,
			Supervisor: collector.Addr(),
		})
		if startErr == nil {
			startErr = conn.Expect(TypePSOPAck, nil)
		}
		conn.Close()
		if startErr != nil {
			return 0, 0, nil, fmt.Errorf("agent: starting proxy %s: %w", addr, startErr)
		}
	}
	// Phase 2: every proxy injects its own dataset; the ack returns once
	// the dataset has completed all hops and reached the collector.
	for _, addr := range proxies {
		conn, err := wire.Dial(addr)
		if err != nil {
			return 0, 0, nil, err
		}
		goErr := conn.Send(TypePSOPGo, PSOPGo{RunID: runID})
		if goErr == nil {
			goErr = conn.Expect(TypePSOPAck, nil)
		}
		conn.Close()
		if goErr != nil {
			return 0, 0, nil, fmt.Errorf("agent: launching proxy %s: %w", addr, goErr)
		}
	}

	// Collect the k commitments and verify their signatures.
	seenCommits := make(map[int]bool, k)
	for len(seenCommits) < k {
		c := <-commits
		if seenCommits[c.Position] {
			return 0, 0, nil, fmt.Errorf("agent: duplicate commitment from position %d", c.Position)
		}
		seenCommits[c.Position] = true
		ac := &audittrail.Commitment{
			Provider:  c.Provider,
			RunID:     c.RunID,
			Root:      c.Root,
			Count:     c.Count,
			At:        time.Unix(c.At, 0).UTC(),
			PublicKey: c.PublicKey,
			Signature: c.Signature,
		}
		if err := ac.Verify(); err != nil {
			return 0, 0, nil, fmt.Errorf("agent: commitment from %q: %w", c.Provider, err)
		}
		commitments = append(commitments, ac)
	}

	// Collect the k fully-encrypted datasets.
	seen := make(map[int][]string, k)
	for len(seen) < k {
		f := <-finals
		if _, dup := seen[f.Owner]; dup {
			return 0, 0, nil, fmt.Errorf("agent: duplicate final dataset for owner %d", f.Owner)
		}
		seen[f.Owner] = f.Elements
	}
	// Count |∩| and |∪| on opaque ciphertexts.
	counts := make(map[string]int)
	for _, elems := range seen {
		for _, e := range elems {
			counts[e]++
		}
	}
	union = len(counts)
	for _, n := range counts {
		if n == k {
			inter++
		}
	}
	return inter, union, commitments, nil
}
