package cluster

import (
	"context"
	"errors"
	"fmt"
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
// Every remote path degrades to the wrapped pool: an unreachable or
// diverged owner, a failed forward, a broken fan-out — the workload runs
// locally and the client never learns the cluster had a bad day.
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

// eligible decides whether owner may compute w: always for self-contained
// workloads, otherwise only when the owner serves the exact database
// snapshot the workload's key was derived from. A cached mismatch earns one
// synchronous re-probe — replication may have converged the peer after the
// last poll — before giving up and computing locally.
func (r *router) eligible(ctx context.Context, owner string, w *auditd.Workload) bool {
	if w.SelfContained {
		return true
	}
	if r.n.peerFingerprint(owner) == w.DBFingerprint {
		return true
	}
	alive, fp := r.n.refresh(ctx, owner)
	return alive && fp == w.DBFingerprint
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

// forward ships one workload — of any kind: the wire request is posted to its
// kind's route uninterpreted — to its owner and relays the outcome. Transport
// failures — the owner unreachable before or during the job — mark the peer
// dead and fall back to local compute; a job that *ran* remotely and failed
// is a real failure (it would fail identically here) and is relayed, not
// retried.
func (r *router) forward(ctx context.Context, owner string, w *auditd.Workload, cb auditd.ExecCallbacks) {
	defer r.wg.Done()
	if !r.eligible(ctx, owner, w) {
		r.runLocal(ctx, w, cb)
		return
	}
	c := r.n.fwd[owner]
	st, err := c.SubmitWorkload(ctx, w)
	if err != nil {
		r.n.m.forwardFailures.Add(1)
		r.n.markDead(owner)
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
// locally: the spliced answer must never be partial.
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
			results[i].rep, results[i].err = r.subAudit(ctx, w, w.Parts[i], &sub)
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
// content address, key. Owners that are dead, diverged, or this node itself
// all resolve to self — the sub still travels the forwarded-HTTP path, so
// every sub-audit is journaled, cached, and counted identically wherever it
// runs.
func (r *router) subAudit(ctx context.Context, parent *auditd.Workload, key string, sub *auditd.SubmitRequest) (*report.Report, error) {
	owner := r.n.ring.owner(key, r.n.peerAlive)
	if owner == "" || owner == r.n.cfg.Self {
		owner = r.n.cfg.Self
	} else if !r.eligible(ctx, owner, parent) {
		owner = r.n.cfg.Self
	}
	r.n.m.fanoutSubaudits.Add(1)
	c := r.n.fwd[owner]
	st, err := c.Submit(ctx, sub)
	if err != nil {
		if owner != r.n.cfg.Self {
			r.n.markDead(owner)
		}
		return nil, err
	}
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		if owner != r.n.cfg.Self && ctx.Err() == nil {
			r.n.markDead(owner)
		}
		return nil, err
	}
	if done.State != auditd.StateDone {
		return nil, fmt.Errorf("sub-audit %s on %s: %s", st.ID, owner, done.State)
	}
	return c.Report(ctx, st.ID)
}
