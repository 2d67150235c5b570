// Delta audits: when the dependency database moves from snapshot A to
// snapshot B, a job submitted against B does not have to recompute from
// scratch. The server keeps a lineage index — for each database-independent
// request identity, the recent (fingerprint, snapshot, result address)
// triples — and diffs the candidate ancestor's snapshot against the current
// one (cheap: same-database snapshots diff in O(records ingested between
// them)). Subjects the diff does not reach audit identically against either
// snapshot (see sia.DirtyDeployments), so:
//
//   - if no subject of the request is dirty, the ancestor result is the
//     answer, byte for byte: it is adopted under the new content address and
//     the job finishes instantly (JobStatus.DeltaHit, empty DirtySubjects);
//   - if some subjects are dirty, only those deployments are re-audited and
//     spliced with the ancestor's clean per-deployment audits, then
//     re-ranked — producing the same bytes a full recompute would, for the
//     cost of the dirty cone (DeltaHit with DirtySubjects listing the
//     re-audited servers).
//
// Recommendations delta the same way at candidate granularity: the ancestor
// search's per-deployment score memo is replayed for every candidate that
// contains no dirty node, so only moved candidates are re-audited.
package auditd

import (
	"context"
	"fmt"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/placement"
	"indaas/internal/report"
	"indaas/internal/sia"
	"indaas/internal/telemetry"
)

// Lineage bounds: per request identity the newest lineagePerKey generations
// are kept; across identities the lineageMaxKeys least recently registered
// are dropped wholesale. Entries are small — they reference results by
// content address and snapshots by generation mark — except recommendation
// score memos, which are capped separately, and the one report struct an
// identity may retain (lineageIndex.reports).
const (
	lineagePerKey  = 4
	lineageMaxKeys = 256
	// lineageMaxScores bounds the recommendation score memos retained —
	// both per memo (recommend.go drops a larger memo at the source) and in
	// aggregate across the whole index (addLocked strips the oldest memos
	// past the budget, keeping their cheap fp/resultKey entries). A dropped
	// memo only costs a full re-search; an exact search over a huge pool is
	// cheaper to redo than to pin tens of MB per retained generation.
	lineageMaxScores = 250_000
)

// lineageEntry records one computed (or adopted) result generation.
type lineageEntry struct {
	resultKey string
	fp        string
	snap      *depdb.Snapshot
	// Audit jobs: the graph specs the result was computed for.
	specs []sia.GraphSpec
	// Recommendation jobs: the kinds filter, the node universe
	// (pool ∪ fixed), and the search's score memo.
	kinds  []deps.Kind
	nodes  []string
	scores map[string]placement.Score
	// rep is set only on lookupLocked's copies: the identity's retained
	// report struct, when this entry is the generation it belongs to.
	rep *report.Report
}

// lineageReg is the registration a submission carries through the job
// machinery: on successful completion the entry is published under reqKey.
type lineageReg struct {
	reqKey string
	entry  *lineageEntry
}

// lineageIndex maps request identities to their recent result generations.
// Guarded by Server.mu.
type lineageIndex struct {
	entries map[string][]*lineageEntry // newest last
	order   []string                   // reqKeys, least recently registered first
	// scoreTotal tracks the retained recommendation score entries across
	// every lineage entry, enforcing the aggregate lineageMaxScores budget.
	scoreTotal int
	// reports is the one place a result outlives its encode as a struct: by
	// result address, the report of the NEWEST generation of an identity
	// that already had an older one — a watch, or a client re-auditing after
	// ingest, whose next refresh splices against exactly this report. At
	// most one per identity (≤ lineageMaxKeys); a one-shot request never
	// gets a second generation and so pins nothing.
	reports map[string]*report.Report
}

func newLineageIndex() *lineageIndex {
	return &lineageIndex{entries: make(map[string][]*lineageEntry), reports: make(map[string]*report.Report)}
}

// addLocked publishes an entry, deduplicating by fingerprint and enforcing
// the retention bounds. Registering a known identity refreshes its recency,
// so the keys evicted past lineageMaxKeys really are the least recently
// registered ones. rep, when the caller holds the generation's report as a
// struct, is retained under the rule on lineageIndex.reports. Caller holds
// Server.mu.
func (l *lineageIndex) addLocked(reg *lineageReg, rep *report.Report) {
	if reg == nil || reg.entry == nil || reg.entry.resultKey == "" {
		return
	}
	es, known := l.entries[reg.reqKey]
	for _, e := range es {
		if e.fp == reg.entry.fp {
			return // this generation is already represented
		}
	}
	if known {
		for i, k := range l.order {
			if k == reg.reqKey {
				l.order = append(append(l.order[:i:i], l.order[i+1:]...), k)
				break
			}
		}
	} else {
		l.order = append(l.order, reg.reqKey)
	}
	if len(es) > 0 {
		delete(l.reports, es[len(es)-1].resultKey) // no longer the newest
		if rep != nil {
			l.reports[reg.entry.resultKey] = rep
		}
	}
	l.scoreTotal += len(reg.entry.scores)
	es = append(es, reg.entry)
	for len(es) > lineagePerKey {
		l.scoreTotal -= len(es[0].scores)
		es = es[1:]
	}
	l.entries[reg.reqKey] = es
	for len(l.entries) > lineageMaxKeys && len(l.order) > 0 {
		oldest := l.order[0]
		l.order = l.order[1:]
		for _, e := range l.entries[oldest] {
			l.scoreTotal -= len(e.scores)
			delete(l.reports, e.resultKey)
		}
		delete(l.entries, oldest)
	}
	l.enforceScoreBudgetLocked()
}

// enforceScoreBudgetLocked strips score memos, oldest identity first, until
// the aggregate budget holds. The entries themselves stay — fingerprints,
// snapshots and result addresses are cheap and keep whole-result adoption
// working; only seeded partial re-scoring falls back to a full search.
// Adoption-chained entries share one memo map, and the budget counts each
// retaining reference, erring toward keeping less.
func (l *lineageIndex) enforceScoreBudgetLocked() {
	for _, key := range l.order {
		if l.scoreTotal <= lineageMaxScores {
			return
		}
		for _, e := range l.entries[key] {
			if len(e.scores) == 0 {
				continue
			}
			l.scoreTotal -= len(e.scores)
			e.scores = nil
			if l.scoreTotal <= lineageMaxScores {
				return
			}
		}
	}
}

// lookupLocked returns copies of the retained generations for a request
// identity, newest last, safe to inspect after releasing Server.mu: the
// struct copies pin their scores-map references even if the budget enforcer
// strips the originals concurrently, and everything the fields point to
// (snapshots, specs, score maps) is never mutated after publication.
func (l *lineageIndex) lookupLocked(reqKey string) []*lineageEntry {
	es := l.entries[reqKey]
	out := make([]*lineageEntry, len(es))
	for i, e := range es {
		cp := *e
		cp.rep = l.reports[e.resultKey]
		out[i] = &cp
	}
	return out
}

// planAuditDelta looks for an ancestor result to reuse for an audit
// submission against the server database, and turns p into an adoption
// (p.adopt: the ancestor is valid verbatim for the new database generation,
// the job can finish without touching the queue) or a partial recompute
// (p.Run re-audits only p.dirty and splices the rest). It leaves p alone when
// no usable ancestor exists (first audit of this shape, lineage evicted,
// ancestor result no longer retrievable) — the full compute then runs.
func (s *Server) planAuditDelta(p *preparedJob, snap *depdb.Snapshot, specs []sia.GraphSpec, opts sia.Options) {
	type candidate struct {
		entry    *lineageEntry
		dirty    []bool
		subjects []string
		nDirty   int
	}
	if _, hit := s.cache.Get(p.Key); hit {
		return // plain content-addressed hit; the resolve stage finds it
	}
	s.mu.Lock()
	entries := s.lineage.lookupLocked(p.reg.reqKey)
	s.mu.Unlock()
	// Diffing and dirty analysis run without Server.mu: entries are
	// immutable once published, and the work is O(records ingested since
	// the ancestor) — fine for this submission, not for every concurrent
	// submit and poll serialized behind the job-table lock.
	var full, partial *candidate
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.fp == snap.Fingerprint() || len(e.specs) == 0 {
			continue
		}
		if partial != nil && dirtierThan(e.snap, partial.entry.snap, snap) {
			continue
		}
		diff := e.snap.Diff(snap)
		if diff.Empty() {
			continue
		}
		dirty, subjects := sia.DirtyDeployments(specs, diff)
		n := 0
		for _, d := range dirty {
			if d {
				n++
			}
		}
		c := &candidate{entry: e, dirty: dirty, subjects: subjects, nDirty: n}
		if n == 0 {
			full = c
			break // newest clean ancestor wins outright
		}
		if partial == nil {
			partial = c // newest ancestor: smallest expected dirty cone
		}
	}

	chosen := full
	if chosen == nil {
		chosen = partial
	}
	if chosen == nil || chosen.nDirty == len(specs) {
		return // nothing to reuse, or everything dirty anyway
	}
	oldRep := chosen.entry.rep
	if chosen.nDirty == 0 || oldRep == nil {
		ancestor, _, ok := s.retrieveResult(chosen.entry.resultKey, 0)
		if !ok || ancestor.kind != auditKind {
			return
		}
		if chosen.nDirty == 0 {
			p.adopt, p.adoptRep = ancestor, oldRep // the bytes move; nothing decodes
			return
		}
		// Splicing needs the ancestor's audits as structs: decode once. The
		// spliced report becomes the retained generation for the next refresh.
		res, err := s.materialize(ancestor, "")
		if err != nil {
			return
		}
		oldRep = res.(*report.Report)
	}
	dirty := chosen.dirty
	p.partial, p.dirty = true, chosen.subjects
	// A delta splice embeds local lineage state; it cannot be re-expressed to
	// a remote node.
	p.NoForward = true
	p.Run = func(ctx context.Context) (any, error) {
		return spliceAudit(ctx, snap, specs, opts, oldRep, dirty)
	}
}

// planRecommendDelta is planAuditDelta's analogue for placement
// recommendations. A clean pool adopts the ancestor response whole, chaining
// its score memo onto the new generation's lineage entry so delta searches
// keep working across consecutive clean ingests; a partially dirty pool seeds
// the search (preq) with the ancestor's scores for every candidate free of
// dirty nodes.
func (s *Server) planRecommendDelta(p *preparedJob, snap *depdb.Snapshot, preq *placement.Request) {
	if _, hit := s.cache.Get(p.Key); hit {
		return
	}
	kinds, universe := p.reg.entry.kinds, p.reg.entry.nodes
	s.mu.Lock()
	entries := s.lineage.lookupLocked(p.reg.reqKey)
	s.mu.Unlock()
	var chosen *lineageEntry
	var dirtyNodes []string
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.fp == snap.Fingerprint() || len(e.nodes) == 0 {
			continue
		}
		if chosen != nil && dirtierThan(e.snap, chosen.snap, snap) {
			continue
		}
		diff := e.snap.Diff(snap)
		if diff.Empty() {
			continue
		}
		dirty := intersectSorted(sia.DirtySubjects(diff, kinds), universe)
		if len(dirty) == 0 {
			chosen, dirtyNodes = e, nil
			break
		}
		if chosen == nil && len(e.scores) > 0 {
			chosen, dirtyNodes = e, dirty
		}
	}

	if chosen == nil || len(dirtyNodes) == len(universe) {
		return
	}
	if len(dirtyNodes) == 0 {
		if ancestor, _, ok := s.retrieveResult(chosen.resultKey, 0); ok && ancestor.kind == recommendKind {
			p.adopt, p.reg.entry.scores = ancestor, chosen.scores
		}
		return
	}
	seed := make(map[string]placement.Score, len(chosen.scores))
	dirtySet := make(map[string]bool, len(dirtyNodes))
	for _, n := range dirtyNodes {
		dirtySet[n] = true
	}
seeding:
	for k, sc := range chosen.scores {
		for _, n := range placement.KeyNodes(k) {
			if dirtySet[n] {
				continue seeding
			}
		}
		seed[k] = sc
	}
	if len(seed) == 0 {
		return // nothing reusable; a plain full search is equivalent
	}
	// The search is seeded with local lineage scores; it stays on this node.
	preq.SeedScores, p.NoForward = seed, true
	p.partial, p.dirty = true, dirtyNodes
}

// dirtierThan reports that e, p and snap are successive generations of one
// log (e oldest), so e's diff against snap contains p's: once p is dirty, e
// can be neither the clean ancestor nor a better partial one and is skipped
// undiffed. Ancestors from another database are always diffed.
func dirtierThan(e, p, snap *depdb.Snapshot) bool {
	return snap.Extends(p) && p.Extends(e)
}

// spliceAudit produces the report a full recompute against db would produce,
// re-auditing only the dirty specs and taking the rest verbatim from the
// ancestor report. Clean specs' fault graphs are identical between the two
// snapshots (that is what clean means), so the spliced report matches the
// full recompute byte for byte.
func spliceAudit(ctx context.Context, db depdb.Reader, specs []sia.GraphSpec, opts sia.Options, old *report.Report, dirty []bool) (*report.Report, error) {
	tr := telemetry.FromContext(ctx)
	defer tr.Start("splice")()
	pool := make(map[string][]report.DeploymentAudit, len(old.Audits))
	for _, a := range old.Audits {
		id := auditIdentity(a.Deployment, a.Sources)
		pool[id] = append(pool[id], a)
	}
	rep := &report.Report{}
	for i, spec := range specs {
		if !dirty[i] {
			id := auditIdentity(spec.Deployment, spec.Servers)
			if as := pool[id]; len(as) > 0 {
				rep.Audits = append(rep.Audits, as[0])
				pool[id] = as[1:]
				tr.Add("subjects_spliced", 1)
				continue
			}
			// Defensive: the ancestor should always carry a clean spec's
			// audit; recompute rather than fail if it somehow does not.
		}
		endBuild := tr.Start("graph-build")
		g, err := sia.BuildGraph(db, spec)
		endBuild()
		if err != nil {
			return nil, err
		}
		audit, err := sia.AuditContext(ctx, g, spec, opts)
		if err != nil {
			return nil, fmt.Errorf("sia: auditing %q: %w", spec.Deployment, err)
		}
		rep.Audits = append(rep.Audits, *audit)
	}
	if opts.RankMode == sia.RankByProb {
		rep.Rank(report.CompareByFailureProb)
	} else {
		rep.Rank(report.CompareBySizeVector)
	}
	return rep, nil
}

// auditIdentity names a deployment audit within one request shape. Within a
// lineage the specs are fixed (same requestKey), so name+sources is a
// faithful identity; duplicates are consumed multiset-style by the splicer.
func auditIdentity(name string, sources []string) string {
	id := name
	for _, s := range sources {
		id += "\x1f" + s
	}
	return id
}

// intersectSorted returns the members of sorted that appear in universe,
// preserving order.
func intersectSorted(sorted, universe []string) []string {
	in := make(map[string]bool, len(universe))
	for _, u := range universe {
		in[u] = true
	}
	var out []string
	for _, s := range sorted {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}
