package auditd

// The job-kind table and the one submit path. The auditing agent runs one
// workflow — specify, acquire, audit, report (§5, Fig. 5) — whatever the
// analysis, so the server has no per-kind branches: a kind registers once, in
// its own file, and the HTTP mux, the crash journal, the result codec, the
// client and the cluster's forward path all find it here by name or route.
// What a kind keeps to itself is its prepare step; everything after it —
// resolve, admit, run, encode, persist, settle — is shared.

import (
	"sync/atomic"
	"time"
)

// jobKind is one registered kind of job.
type jobKind struct {
	// name tags the kind's journal records, disk envelopes and workloads
	// (KindAudit …): one vocabulary for what a job is, wherever it is stored.
	name string
	// route is the kind's POST route: the handler is mounted on it, and the
	// client and the cluster's forward path post to it.
	route string
	// hint completes "job … is …" when a typed client getter meets this kind.
	hint string
	// titled payloads carry their title field even when it is empty (reports
	// do; the other kinds omit an empty one) — see EncodedResult.head.
	titled bool
	// markers are the payload fields that identify the kind's result (resultKind).
	markers []string
	// newRequest returns a zero wire request for the HTTP decoder and the
	// journal replay to fill.
	newRequest func() jobRequest
	// decodeResult materialises the kind's result struct from its stored
	// (title-less) bytes, under title.
	decodeResult func(obj []byte, title string) (any, error)
}

// jobRequest is a kind's wire request. prepare is the whole of a kind's
// submission logic: validate and normalize, resolve the data it runs against,
// derive the content address, plan a splice if the kind has one, and build
// the run closure with its routing facts. An error carries its HTTP status
// (see statusErr).
type jobRequest interface {
	prepare(s *Server) (*preparedJob, error)
}

// jobKinds is the table. Adding a kind is adding a file that defines its
// jobKind and listing it here (docs/ARCHITECTURE.md has the recipe).
var jobKinds = []*jobKind{auditKind, privateAuditKind, recommendKind}

// kindByName looks a kind up by its stored name; nil if none is registered.
func kindByName(name string) *jobKind {
	for _, k := range jobKinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// origin says where a submission came from, which decides its id, whether it
// is journaled and whether it may leave this node. The zero value is a
// client's request arriving at its first node.
type origin struct {
	// recoverID replays a journaled job under its original id at boot.
	recoverID string
	// refresh marks a watch refresh: nobody holds its job id across a crash
	// and a reconnecting watcher re-audits anyway, so it is not journaled.
	refresh bool
	// forwarded marks a request a cluster peer already routed once: it
	// computes here (single-hop ownership, no forward loops).
	forwarded bool
}

// provenance is how a job came by its result: the one record of which path
// answered a submission. JobStatus's cached / disk_hit / coalesced /
// delta_hit booleans are derived from it (statusLocked) and the hit counters
// switch on it, so no combination outside this enum can be rendered.
type provenance uint8

const (
	provComputed  provenance = iota // started its own computation
	provMemoryHit                   // the memory tier held the result
	provDiskHit                     // the disk store held it (promoted to memory)
	provPeerHit                     // an extra tier — a cluster peer's cache — held it
	provCoalesced                   // attached to an identical in-flight computation
)

// hit reports that the job finished at submission, without the queue.
func (p provenance) hit() bool { return p != provComputed && p != provCoalesced }

// preparedJob is a submission after its kind's prepare step: the workload it
// would run, and what the shared stages need to know besides — none of it
// kind-specific. prepare fills the workload (but Kind and Wire) and the first
// block; submitJob and the resolve stage fill the rest.
type preparedJob struct {
	Workload
	title     string
	timeoutMS int64
	// partial marks a run that splices held deployment audits (planSplice);
	// dirty lists the servers of the deployments it re-audits.
	partial bool
	dirty   []string
	// accepted is the kind's own counter of accepted jobs, if it keeps one.
	accepted *atomic.Int64

	kind *jobKind
	org  origin
	// job is the handle the resolve stage builds, under a pre-allocated id,
	// for admit to settle, attach or start — or drop. prov is what answered
	// it so far (provComputed = nothing yet), and hit the result a tier
	// answered with. staleJournal asks submitJob to tombstone the job's
	// journal record: admit made no job for it to speak for, or settled the
	// job on the spot.
	job          *job
	prov         provenance
	hit          *EncodedResult
	staleJournal bool
}

// submitJob is the one submit path: every job of every kind — a client's, a
// journal replay, a watch refresh — is prepared by its kind, resolved against
// the result tiers without the job-table lock, and admitted under it.
func (s *Server) submitJob(k *jobKind, req jobRequest, org origin) (JobStatus, error) {
	p, err := req.prepare(s)
	if err != nil {
		return JobStatus{}, err
	}
	p.kind, p.Kind, p.Wire, p.org = k, k.name, req, org
	// A forwarded request was routed once already, and a replayed job stays
	// with the journal that holds it.
	p.NoForward = p.NoForward || org.forwarded || org.recoverID != ""
	s.resolveJob(p)
	st, err := s.admit(p)
	if p.staleJournal {
		s.clearJournals([]string{p.job.id})
	}
	if err == nil && p.accepted != nil {
		p.accepted.Add(1)
	}
	return st, err
}

// resolveJob is the submit path's lock-free stage: all the IO a submission
// may need happens here, before admit takes the job-table lock once. The
// memory tier is probed, then — unless an identical computation is in flight,
// whose result the lower tiers cannot hold yet — disk and any extras (a
// cluster peer's cache): reading and checksumming a large persisted report,
// or fetching it over HTTP, must not stall unrelated submits and polls. A
// miss on a durable daemon is journaled under its pre-allocated id BEFORE the
// job can enter the queue: once any client observes the id, a kill -9 must
// not silently discard the work — the next boot replays the journal.
func (s *Server) resolveJob(p *preparedJob) {
	recovered := p.org.recoverID != ""
	j := &job{
		id:        s.allocID(p.org.recoverID),
		key:       p.Key,
		title:     p.title,
		submitted: time.Now(),
		timeout:   s.cfg.DefaultTimeout,
		recovered: recovered,
		journaled: recovered, // its record is on disk from the boot that accepted it
	}
	if p.timeoutMS > 0 {
		j.timeout = time.Duration(p.timeoutMS) * time.Millisecond
	}
	p.job = j
	if r, ok := s.cache.Get(p.Key); ok {
		p.prov, p.hit = provMemoryHit, r
		return
	}
	if _, busy := s.inflight.Load(p.Key); !busy && len(s.tiers) > 1 {
		if r, tier, ok := s.retrieveResult(p.Key, 1); ok {
			// An identical job may have promoted the same bytes during the
			// probe; overwriting with an equal copy is harmless.
			s.cache.Put(p.Key, r)
			p.prov, p.hit = provPeerHit, r
			if tier == tierDisk {
				p.prov = provDiskHit
			}
			return
		}
	}
	if s.store != nil && !p.org.refresh && s.journalJob(j.id, p.Kind, p.Wire) {
		j.journaled = true
	}
}
