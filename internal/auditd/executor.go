package auditd

// The executor seam: a computation is a Workload — a keyed run closure plus
// the routing facts a scheduler needs — handed to an Executor. The in-process
// worker pool (localExecutor) is one implementation; internal/cluster wraps
// it with a remote executor that forwards workloads to the hash owner of
// their content address and falls back to the wrapped pool when the owner is
// unreachable. The Server never cares which one it holds.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// The names of the registered job kinds (see jobkind.go): what a workload, a
// journal record and a stored result are tagged with.
const (
	KindAudit        = "audit"
	KindRecommend    = "recommend"
	KindPrivateAudit = "private-audit"
)

// Workload is one unit of executable work: the run closure and the facts a
// scheduler needs to place it without understanding its payload.
type Workload struct {
	// Key is the content address of the result (see canonicalKey): any
	// executor anywhere may compute this workload and the result is valid
	// under Key on every node.
	Key string
	// Parts are, for a multi-deployment audit, the address each deployment
	// gets as a one-deployment request against the same database: the
	// cluster's fan-out routes each sub-audit by its part.
	Parts []string
	// Kind names the workload's registered job kind (KindAudit …).
	Kind string
	// Wire is the workload's wire request (*SubmitRequest and friends), nil
	// when the submission cannot be re-expressed over HTTP. A remote executor
	// re-submits it verbatim to the owning node (Client.SubmitWorkload posts
	// it to the kind's route).
	Wire any
	// DBFingerprint is the database snapshot the run closure captured; a
	// remote executor may only forward a non-self-contained workload to a
	// node whose database reports the same fingerprint.
	DBFingerprint string
	// SelfContained means the wire request carries everything needed to
	// compute it (inline records, inline provider components): any node can
	// run it regardless of database state.
	SelfContained bool
	// NoForward pins the workload to the local pool: set for requests that
	// were already forwarded once (single-hop ownership), journal-recovered
	// jobs, and runs that splice deployment audits held on this node.
	NoForward bool
	// Run computes the result. It must honor ctx cancellation.
	Run func(ctx context.Context) (any, error)
}

// ExecCallbacks observe one submitted workload's lifecycle. The executor
// calls Started when a worker actually picks the workload up and Done exactly
// once with the outcome; a workload canceled while still queued gets
// Done(nil, ctx.Err()) without Started. Both are invoked from the executing
// goroutine — never synchronously from Submit, whose caller may hold locks —
// and Started always precedes Done. res is the result as a struct, or — from
// an executor that had the work done elsewhere — as the *EncodedResult it
// fetched, which the server keeps without re-encoding.
type ExecCallbacks struct {
	Started func()
	Done    func(res any, err error)
}

// Executor runs workloads. Submit is asynchronous and non-blocking: it either
// accepts the workload (callbacks fire later) or returns an error — a full
// queue, a closed executor — and fires nothing. Execute is the synchronous
// escape hatch: it runs the workload on the calling goroutine through the
// same panic barrier and hook, bypassing the queue; remote executors use it
// to compute locally when forwarding fails. Close stops intake; Wait blocks
// until accepted work has drained.
type Executor interface {
	Submit(ctx context.Context, w *Workload, cb ExecCallbacks) error
	Execute(ctx context.Context, w *Workload) (any, error)
	QueueDepth() int
	Close()
	Wait()
}

// errExecutorSaturated rejects a Submit when the queue is full; the server
// maps it to 429.
var errExecutorSaturated = errors.New("executor queue is full")

// execItem is one queued workload with its lifecycle observers.
type execItem struct {
	ctx context.Context
	w   *Workload
	cb  ExecCallbacks
}

// localExecutor is the in-process bounded worker pool: a buffered channel of
// workloads drained by a fixed set of goroutines. It owns the worker-side
// metrics (busy gauge, computation counter, compute histogram, panic counter)
// so a clustered node only counts computations it actually ran — forwarded
// work shows up on the owner, not the coordinator.
type localExecutor struct {
	mu     sync.Mutex
	closed bool
	queue  chan *execItem
	wg     sync.WaitGroup
	m      *metrics
	// runHook is Config.RunHook: the fault-injection seam, run before every
	// workload.
	runHook func(ctx context.Context, key string) error
}

// newLocalExecutor starts a pool of workers draining a queue of depth
// queueDepth.
func newLocalExecutor(workers, queueDepth int, m *metrics, runHook func(ctx context.Context, key string) error) *localExecutor {
	e := &localExecutor{
		queue:   make(chan *execItem, queueDepth),
		m:       m,
		runHook: runHook,
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Submit queues the workload without blocking; the select mirrors the
// pre-refactor non-blocking channel send, so saturation behavior (and the 429
// it maps to) is unchanged.
func (e *localExecutor) Submit(ctx context.Context, w *Workload, cb ExecCallbacks) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.New("executor is closed")
	}
	select {
	case e.queue <- &execItem{ctx: ctx, w: w, cb: cb}:
		return nil
	default:
		return errExecutorSaturated
	}
}

// Execute runs the workload synchronously behind the panic barrier and the
// fault-injection hook. A panicking workload fails only its own jobs — the
// stack lands in JobStatus.Error — while the caller and the rest of the
// daemon keep serving.
func (e *localExecutor) Execute(ctx context.Context, w *Workload) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.m.WorkerPanics.Add(1)
			res = nil
			err = fmt.Errorf("worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	if hook := e.runHook; hook != nil {
		if err := hook(ctx, w.Key); err != nil {
			return nil, err
		}
	}
	return w.Run(ctx)
}

// worker drains the queue until Close closes it.
func (e *localExecutor) worker() {
	defer e.wg.Done()
	for item := range e.queue {
		e.runItem(item)
	}
}

// runItem executes one queued workload and settles its callbacks.
func (e *localExecutor) runItem(item *execItem) {
	if item.ctx.Err() != nil {
		// Canceled while queued: discard without running.
		item.cb.Done(nil, item.ctx.Err())
		return
	}
	if item.cb.Started != nil {
		item.cb.Started()
	}
	e.m.BusyWorkers.Add(1)
	e.m.Computations.Add(1)
	computeStart := time.Now()
	res, err := e.Execute(item.ctx, item.w)
	e.m.Compute.Observe(time.Since(computeStart))
	e.m.BusyWorkers.Add(-1)
	item.cb.Done(res, err)
}

// QueueDepth reports workloads accepted but not yet picked up.
func (e *localExecutor) QueueDepth() int { return len(e.queue) }

// Close stops intake and lets the workers drain what was accepted.
// Idempotent.
func (e *localExecutor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.queue)
}

// Wait blocks until every worker has exited; call after Close.
func (e *localExecutor) Wait() { e.wg.Wait() }
