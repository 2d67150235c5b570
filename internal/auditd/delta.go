// Delta audits. A server-database job is addressed by the records it reads
// (depdb.Snapshot.Scope), not by the whole database: an ingest that misses a
// job's subjects leaves its content address alone, so resubmitting it is a
// plain hit on the memory, disk or peer tier. What is left to do here is the
// partly dirty case. The server holds decoded results in two bounded memos
// keyed by content address:
//
//   - audits: per multi-deployment server-database audit, one group holding
//     each deployment audit — as the one-audit report a one-deployment
//     request for that deployment, whose address is the same, would get —
//     and the assembled report under its job's address (Result reads it
//     without a decode). A multi-deployment job whose address is new
//     re-audits only the deployments the memo does not hold and splices the
//     rest (JobStatus DeltaHit, DirtySubjects listing the re-audited
//     servers), producing the bytes a full recompute would.
//   - scores: candidate placement.Scores, each under the address a
//     one-deployment audit of the candidate would get. A recommendation reads
//     and fills it through placement.Request.Cache, so a search over a
//     partly changed pool re-audits only the candidates whose records moved.
package auditd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/placement"
	"indaas/internal/report"
	"indaas/internal/sia"
	"indaas/internal/telemetry"
)

// The memos' bounds, in groups (see memo). heldAudits counts requests: a
// multi-deployment audit holds its deployment audits and its report as one
// group, however many deployments it has. heldScores counts candidates, and
// is the most an exact search may score by default (placement's
// DefaultMaxCandidates) with room to spare, so resubmitting one re-audits
// only the candidates whose records moved. A dropped group only costs
// re-auditing what it held.
const (
	heldAudits = 256
	heldScores = 250_000
)

// scopesDomain separates a multi-deployment audit's db field — the hash of
// its deployments' scopes, in order — from every depdb digest.
const scopesDomain = "indaas/auditd/scopes/v1\n"

// address fills in the db field of the normalized request — the private
// database's fingerprint when its records are inline, otherwise the scope of
// the records its deployments read — and returns, for a multi-deployment
// request, parts: the address each deployment gets as a one-deployment
// request against the same database.
func (n *normalized) address(snap *depdb.Snapshot, inline bool) (parts []string) {
	dbOf := func(d *DeploymentWire) string {
		if inline {
			return snap.Fingerprint()
		}
		return deploymentScope(snap, d)
	}
	if len(n.Deployments) == 1 {
		n.DBFingerprint = dbOf(&n.Deployments[0])
		return nil
	}
	parts = make([]string, len(n.Deployments))
	scopes := []byte(scopesDomain)
	for i := range n.Deployments {
		part := *n
		part.Deployments = n.Deployments[i : i+1]
		part.DBFingerprint = dbOf(&part.Deployments[0])
		parts[i] = part.key()
		scopes = append(scopes, part.DBFingerprint...)
	}
	n.DBFingerprint = snap.Fingerprint()
	if !inline {
		sum := sha256.Sum256(scopes)
		n.DBFingerprint = hex.EncodeToString(sum[:])
	}
	return parts
}

// deploymentScope is the scope of one normalized deployment: its servers'
// records of the kinds it wants.
func deploymentScope(snap *depdb.Snapshot, d *DeploymentWire) string {
	var stack [3]deps.Kind
	kinds := stack[:0]
	for _, name := range d.Kinds {
		k, _ := deps.KindFromString(name) // validated in normalize
		kinds = append(kinds, k)
	}
	return snap.Scope(d.Servers, kinds)
}

// planSplice readies a multi-deployment server-database audit: its run audits
// each deployment the audits memo does not hold under the deployment's
// address and splices the held ones in. When some are held the job is
// partial — dirty lists the servers of the deployments it re-audits — and
// stays on this node, whose memo it reads.
func (s *Server) planSplice(p *preparedJob, snap *depdb.Snapshot, specs []sia.GraphSpec, opts sia.Options) {
	held := make([]*report.Report, len(specs))
	var dirty []string
	spliced := false
	for i, part := range p.Parts {
		if rep, ok := s.audits.Get(part); ok {
			held[i], spliced = rep, true
		} else {
			dirty = append(dirty, specs[i].Servers...)
		}
	}
	key, parts := p.Key, p.Parts
	p.Run = func(ctx context.Context) (any, error) {
		return s.spliceAudit(ctx, snap, specs, opts, key, parts, held)
	}
	if spliced {
		slices.Sort(dirty)
		p.partial, p.dirty, p.NoForward = true, slices.Compact(dirty), true
	}
}

// spliceAudit produces the report a full recompute against db would produce:
// every deployment held is taken verbatim — its address commits to the very
// records and options it would be audited with — and the rest are audited,
// one at a time. The memo then holds the request as one group: each
// deployment audit under its part and the assembled report under key.
func (s *Server) spliceAudit(ctx context.Context, db depdb.Reader, specs []sia.GraphSpec, opts sia.Options, key string, parts []string, held []*report.Report) (*report.Report, error) {
	tr := telemetry.FromContext(ctx)
	if slices.ContainsFunc(held, func(h *report.Report) bool { return h != nil }) {
		defer tr.Start("splice")()
	}
	rep := &report.Report{Audits: make([]report.DeploymentAudit, 0, len(specs))}
	ones := make([]*report.Report, len(specs), len(specs)+1)
	for i := range specs {
		one := held[i]
		if one != nil {
			tr.Add("subjects_spliced", 1)
		} else {
			var err error
			if one, err = sia.AuditDeploymentsContext(ctx, db, "", specs[i:i+1], opts); err != nil {
				return nil, err
			}
		}
		ones[i] = one
		rep.Audits = append(rep.Audits, one.Audits[0])
	}
	if opts.RankMode == sia.RankByProb {
		rep.Rank(report.CompareByFailureProb)
	} else {
		rep.Rank(report.CompareBySizeVector)
	}
	s.audits.PutAll(append(parts[:len(parts):len(parts)], key), append(ones, rep))
	return rep, nil
}

// candidateScores is a recommendation's placement.Request.Cache: the server's
// scores memo, addressed per candidate as a one-deployment audit of it — the
// placement engine's own spec, under the search's kinds and options — against
// the search's snapshot.
type candidateScores struct {
	memo *memo[placement.Score]
	snap *depdb.Snapshot
	// audit is the candidates' shared normalized form: options set,
	// deployment and db filled in per candidate.
	audit normalized
	kinds []string
}

func (c *candidateScores) Get(nodes []string) (placement.Score, string, bool) {
	n := c.audit
	n.Deployments = []DeploymentWire{{Name: "placement:" + strings.Join(nodes, "+"), Servers: nodes, Kinds: c.kinds}}
	n.DBFingerprint = deploymentScope(c.snap, &n.Deployments[0])
	key := n.key()
	sc, ok := c.memo.Get(key)
	return sc, key, ok
}

func (c *candidateScores) Put(key string, sc placement.Score) {
	c.memo.Put(key, sc)
}
