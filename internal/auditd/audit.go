package auditd

import (
	"context"
	"errors"

	"indaas/internal/depdb"
	"indaas/internal/report"
	"indaas/internal/sia"
)

// auditKind is the structural independence audit (§4.1): POST /v1/audits, a
// SubmitRequest in, a ranked report.Report out.
var auditKind = &jobKind{
	name:       KindAudit,
	route:      "/v1/audits",
	hint:       "an audit job; use Report",
	titled:     true,
	markers:    []string{"audits"},
	newRequest: func() jobRequest { return new(SubmitRequest) },
	decodeResult: func(obj []byte, title string) (any, error) {
		rep := new(report.Report)
		err := report.DecodeJSON(obj, rep)
		rep.Title = title
		return rep, err
	},
}

// Submit validates and accepts an audit request, returning the new job's
// status. The error, when non-nil, carries an HTTP status via statusErr.
func (s *Server) Submit(req *SubmitRequest) (JobStatus, error) {
	return s.submitJob(auditKind, req, origin{})
}

// prepare readies an audit: the run closure audits the request's deployments
// against the resolved snapshot, and the address commits to the records they
// read (normalized.address). A multi-deployment server-database audit splices
// in the deployment audits the server holds (planSplice).
func (r *SubmitRequest) prepare(s *Server) (*preparedJob, error) {
	n, opts, err := r.normalize()
	if err != nil {
		return nil, &statusErr{code: 400, err: err}
	}
	snap, err := s.resolveDB(r.Records)
	if err != nil {
		return nil, err
	}
	inline := len(r.Records) > 0
	parts := n.address(snap, inline)
	specs := n.specs()
	p := &preparedJob{title: r.Title, timeoutMS: r.TimeoutMS, Workload: Workload{
		Key:           n.key(),
		Parts:         parts,
		DBFingerprint: snap.Fingerprint(),
		SelfContained: inline,
		Run: func(ctx context.Context) (any, error) {
			rep, err := sia.AuditDeploymentsContext(ctx, snap, "", specs, opts)
			if err != nil {
				return nil, err
			}
			return rep, nil
		},
	}}
	if !inline && len(parts) > 0 {
		s.planSplice(p, snap, specs, opts)
	}
	return p, nil
}

// resolveDB picks the dependency database a request runs against: a fresh
// store built from inline records, or the registered snapshot of the
// server's database (preloaded via Config.DB or grown through /v1/depdb
// ingests).
func (s *Server) resolveDB(records []RecordWire) (*depdb.Snapshot, error) {
	if len(records) > 0 {
		recs, err := recordsFromWire(records)
		if err != nil {
			return nil, err
		}
		fresh := depdb.New()
		if err := fresh.Put(recs...); err != nil {
			return nil, &statusErr{code: 400, err: err}
		}
		return fresh.Snapshot(), nil
	}
	s.mu.Lock()
	db := s.db
	s.mu.Unlock()
	if db == nil {
		return nil, &statusErr{code: 400, err: errors.New("request has no records and the server has no preloaded database")}
	}
	return db.Snapshot(), nil
}
