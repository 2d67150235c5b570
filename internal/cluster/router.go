package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/report"
)

// router is the remote Executor: it wraps the node's local worker pool and
// routes each forwardable workload to the hash owner of its content
// address over the ordinary client protocol, marked with ForwardedHeader so
// the owner computes it locally (single-hop ownership — a forward is never
// forwarded again). Many-deployment audits are instead fanned out: one
// single-deployment sub-audit per deployment, each routed to its own owner,
// spliced back into one ranked report at the coordinator.
//
// A forward proves its address: the coordinator relays an owner's result
// only when the owner derived the coordinator's own address for the request
// (w.Key, or a fan-out part), so a result computed on records this node does
// not hold never lands under this node's address.
//
// Every remote path degrades to the wrapped pool: an unreachable owner, an
// owner that derived another address, a failed forward, a broken fan-out —
// the workload runs locally and the client never learns the cluster had a
// bad day.
type router struct {
	n     *Node
	inner auditd.Executor
	wg    sync.WaitGroup
}

// Submit routes the workload. It is called with server locks held, so every
// decision that could touch the network happens on a spawned goroutine; the
// synchronous path only inspects in-memory state.
func (r *router) Submit(ctx context.Context, w *auditd.Workload, cb auditd.ExecCallbacks) error {
	if w.NoForward || w.Wire == nil {
		return r.inner.Submit(ctx, w, cb)
	}
	if sr, ok := w.Wire.(*auditd.SubmitRequest); ok && len(sr.Deployments) >= 2 && len(w.Parts) == len(sr.Deployments) && r.n.healthyPeers() > 0 {
		r.wg.Add(1)
		go r.fanout(ctx, w, sr, cb)
		return nil
	}
	owner := r.n.ring.owner(w.Key, r.n.peerAlive)
	if owner == "" || owner == r.n.cfg.Self {
		return r.inner.Submit(ctx, w, cb)
	}
	r.wg.Add(1)
	go r.forward(ctx, owner, w, cb)
	return nil
}

// Execute runs the workload synchronously on the local pool's panic
// barrier; remote execution never applies to the synchronous escape hatch.
func (r *router) Execute(ctx context.Context, w *auditd.Workload) (any, error) {
	return r.inner.Execute(ctx, w)
}

func (r *router) QueueDepth() int { return r.inner.QueueDepth() }

func (r *router) Close() { r.inner.Close() }

// Wait drains in-flight forwards and fan-outs before waiting out the pool:
// a forwarded job's Done callback still needs the server alive.
func (r *router) Wait() {
	r.wg.Wait()
	r.inner.Wait()
}

// runLocal computes w on the local pool after routing declined or failed,
// honoring the callback contract on the server's behalf. The queue is tried
// first (metrics and backpressure as if the job had never been routable);
// if it is saturated the workload runs right here — this goroutine is
// already off the server's locks, and a job the server accepted must not
// fail with a queue error it never would have seen single-node.
func (r *router) runLocal(ctx context.Context, w *auditd.Workload, cb auditd.ExecCallbacks) {
	if r.inner.Submit(ctx, w, cb) == nil {
		return
	}
	if err := ctx.Err(); err != nil {
		cb.Done(nil, err)
		return
	}
	if cb.Started != nil {
		cb.Started()
	}
	res, err := r.inner.Execute(ctx, w)
	cb.Done(res, err)
}

// computeHere finishes a workload whose remote run broke after Started was
// relayed: it runs on this goroutine, behind the local pool's panic barrier.
func (r *router) computeHere(ctx context.Context, w *auditd.Workload, cb auditd.ExecCallbacks) {
	r.n.m.forwardFailures.Add(1)
	cb.Done(r.inner.Execute(ctx, w))
}

// cancelRemote best-effort cancels a job this node forwarded; the caller's
// context is already dead, so the cancel gets its own short one.
func (r *router) cancelRemote(owner, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r.n.fwd[owner].Cancel(ctx, id)
}

// refused reports whether a forwarded submission's error is the owner
// answering 400: the request is invalid on the owner's records — it holds no
// database yet, say — which, like deriving another address, says nothing
// about the owner's health.
func refused(err error) bool {
	var se interface{ StatusCode() int }
	return errors.As(err, &se) && se.StatusCode() == http.StatusBadRequest
}

// mismatched reports whether the owner took the job st under another address
// than want, or refused it (err). Such an owner is healthy — it reads
// different records — so it is not marked dead; a job it took, valid under
// its own address, is canceled on a best-effort basis, and the caller
// computes on this node.
func (r *router) mismatched(owner string, st auditd.JobStatus, err error, want string) bool {
	if err == nil && st.CacheKey == want {
		return false
	}
	r.n.m.forwardMismatches.Add(1)
	if err == nil {
		r.cancelRemote(owner, st.ID)
	}
	return true
}

// forward ships one workload — of any kind: the wire request is posted to its
// kind's route uninterpreted — to its owner and relays the outcome. Transport
// failures — the owner unreachable before or during the job — mark the peer
// dead and fall back to local compute; an owner that derived another address,
// or refused the request, falls back to local compute too, alive. A job that
// *ran* remotely under w.Key and failed is a real failure (it would fail
// identically here) and is relayed, not retried.
func (r *router) forward(ctx context.Context, owner string, w *auditd.Workload, cb auditd.ExecCallbacks) {
	defer r.wg.Done()
	c := r.n.fwd[owner]
	st, err := c.SubmitWorkload(ctx, w)
	if err != nil && !refused(err) {
		r.n.m.forwardFailures.Add(1)
		r.n.markDead(owner)
		r.runLocal(ctx, w, cb)
		return
	}
	if r.mismatched(owner, st, err, w.Key) {
		r.runLocal(ctx, w, cb)
		return
	}
	r.n.m.forwards.Add(1)
	if cb.Started != nil {
		cb.Started()
	}
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		if ctx.Err() != nil {
			r.cancelRemote(owner, st.ID)
			cb.Done(nil, ctx.Err())
			return
		}
		// The owner died mid-job. Its journal will replay the job when it
		// comes back, but this client is waiting now: compute here.
		r.n.markDead(owner)
		r.computeHere(ctx, w, cb)
		return
	}
	switch done.State {
	case auditd.StateDone:
		// The owner's report body is relayed as the bytes it served: the
		// server keeps a result as bytes anyway, so nothing decodes it here.
		res, err := c.JobResult(ctx, st.ID)
		if err != nil {
			// Completed remotely but the result fetch broke: recompute — the
			// content-addressed result is identical.
			r.computeHere(ctx, w, cb)
			return
		}
		cb.Done(res, nil)
	case auditd.StateCanceled:
		cb.Done(nil, fmt.Errorf("job canceled on owner %s", owner))
	default:
		cb.Done(nil, errors.New(done.Error))
	}
}

// fanout splits a many-deployment audit into one sub-audit per deployment,
// routes each — over HTTP, self included, all marked forwarded — to the
// hash owner of its own content address (the workload's part for it, the
// address the sub-audit gets wherever the deployment's records match), and
// splices the sub-reports back into one report ranked exactly as a
// single-node run would have ranked it.
// Any sub-audit failing abandons the fan-out and computes the whole parent
// locally, on the snapshot the parent captured: the spliced answer must never
// be partial, nor mix records of two states.
func (r *router) fanout(ctx context.Context, w *auditd.Workload, sr *auditd.SubmitRequest, cb auditd.ExecCallbacks) {
	defer r.wg.Done()
	if err := ctx.Err(); err != nil {
		cb.Done(nil, err)
		return
	}
	if cb.Started != nil {
		cb.Started()
	}
	r.n.m.fanouts.Add(1)

	type subResult struct {
		rep *report.Report
		err error
	}
	results := make([]subResult, len(sr.Deployments))
	var wg sync.WaitGroup
	for i := range sr.Deployments {
		sub := *sr
		sub.Deployments = []auditd.DeploymentWire{sr.Deployments[i]}
		wg.Add(1)
		go func(i int, sub auditd.SubmitRequest) {
			defer wg.Done()
			results[i].rep, results[i].err = r.subAudit(ctx, w.Parts[i], &sub)
		}(i, sub)
	}
	wg.Wait()

	spliced := &report.Report{Title: sr.Title}
	for _, sr := range results {
		if sr.err != nil {
			// Abandon the fan-out; compute the full parent on the local pool.
			r.computeHere(ctx, w, cb)
			return
		}
		spliced.Audits = append(spliced.Audits, sr.rep.Audits...)
	}
	if sr.FailureProb > 0 {
		spliced.Rank(report.CompareByFailureProb)
	} else {
		spliced.Rank(report.CompareBySizeVector)
	}
	cb.Done(spliced, nil)
}

// subAudit runs one single-deployment sub-request on the owner of its
// content address, key. Owners that are dead, or this node itself, resolve to
// self — the sub still travels the forwarded-HTTP path, so every sub-audit is
// journaled, cached, and counted identically wherever it runs. A peer owner
// that derives another address, or refuses the sub-audit, hands it to self;
// self deriving another address means an ingest landed after the parent was
// prepared, and fails the sub-audit, which abandons the fan-out.
func (r *router) subAudit(ctx context.Context, key string, sub *auditd.SubmitRequest) (*report.Report, error) {
	r.n.m.fanoutSubaudits.Add(1)
	self := r.n.cfg.Self
	owner := r.n.ring.owner(key, r.n.peerAlive)
	if owner == "" {
		owner = self
	}
	st, err := r.n.fwd[owner].Submit(ctx, sub)
	if owner != self {
		if err != nil && !refused(err) {
			r.n.markDead(owner)
			return nil, err
		}
		if r.mismatched(owner, st, err, key) {
			owner = self
			st, err = r.n.fwd[self].Submit(ctx, sub)
		}
	}
	if err != nil {
		return nil, err
	}
	if st.CacheKey != key {
		return nil, fmt.Errorf("sub-audit %s: the database moved since the fan-out was planned", st.ID)
	}
	c := r.n.fwd[owner]
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		if owner != self && ctx.Err() == nil {
			r.n.markDead(owner)
		}
		return nil, err
	}
	if done.State != auditd.StateDone {
		return nil, fmt.Errorf("sub-audit %s on %s: %s", st.ID, owner, done.State)
	}
	return c.Report(ctx, st.ID)
}
