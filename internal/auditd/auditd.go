// Package auditd implements the INDaaS audit service: an HTTP/JSON daemon
// that runs structural independence audits (§4.1) as asynchronous jobs on a
// bounded worker pool, the always-on counterpart of the one-shot
// `indaas audit` CLI (§5, Fig. 5).
//
// Lifecycle of a job:
//
//	POST /v1/audits                submit → {id, state, cache_key}
//	POST /v1/recommend             submit a placement recommendation job
//	GET  /v1/audits/{id}           poll (or long-poll with ?wait=5s)
//	GET  /v1/audits/{id}/report    fetch the finished report/recommendation
//	DELETE /v1/audits/{id}         cancel; worker goroutines are released
//	POST /v1/depdb                 ingest dependency records → fingerprint
//	GET  /v1/cache/{key}           content-addressed result lookup
//	GET  /metrics                  queue depth, hit rate, worker utilization
//
// Work is deduplicated twice: completed reports live in a content-addressed
// LRU keyed by the canonical hash of (DepDB snapshot fingerprint, graph
// specs, algorithm options) — an identical audit from any client is a cache
// hit that never touches the queue — and identical jobs submitted while a
// computation is still in flight coalesce onto it instead of enqueueing
// again. Cancellation reference-counts coalesced jobs: a computation's
// context is canceled only when its last interested job is.
//
// A finished result is held once, as bytes (see EncodedResult): encoded when
// its computation completes, cached, stored and served as that one slice. A
// job keeps only a handle — content address, title, provenance — and a
// report read resolves the address through the result tiers.
package auditd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/placement"
	"indaas/internal/report"
	"indaas/internal/store"
	"indaas/internal/telemetry"
	"indaas/internal/watch"
)

// Config tunes the service.
type Config struct {
	// Workers is the worker pool size (default: one per CPU).
	Workers int
	// QueueDepth bounds the number of computations waiting for a worker;
	// submissions beyond it are rejected with 429 (default 128).
	QueueDepth int
	// CacheEntries bounds the in-memory result tier: how many finished
	// results, each held once as its encoded bytes, stay readable without the
	// disk tier (default 512; 0 keeps the default). Negative disables the
	// tier — with no Store either, every finished job's report answers 410.
	CacheEntries int
	// DB is an optional preloaded dependency database, audited when a
	// request carries no inline records. Writers may keep inserting while
	// the service runs — /v1/depdb ingests land here too (a server started
	// without a DB creates one on first ingest): each job audits the
	// registered snapshot current at submission time.
	DB *depdb.DB
	// DefaultTimeout caps each job's run time — measured from the moment a
	// worker starts its computation, so queue wait does not count — when
	// the request does not set its own (default: none).
	DefaultTimeout time.Duration
	// JobRetention bounds the job table: once more jobs than this exist,
	// the oldest *terminal* jobs are evicted, so an always-on daemon does not
	// grow without bound. A job is a handle (well under 1 KB), never a
	// result: how long its report stays readable is bounded by the result
	// tiers, and a retained job whose result every tier has dropped answers
	// 410 Gone (resubmit to recompute). Evicted jobs 404 on status/report
	// lookups; their reports stay reachable through /v1/cache/{key} while
	// cached. Default 4096; negative disables eviction.
	JobRetention int
	// Store, when set, makes the service durable: completed results are
	// written through to disk before their jobs report done, in-memory cache
	// misses fall back to the disk tier, and /v1/depdb ingests persist the
	// snapshot so a restarted daemon serves the same fingerprints (see
	// RestoreDB). The caller owns the store's lifecycle and should close it
	// after Shutdown returns.
	Store *store.Store
	// StoreFailureThreshold is how many consecutive store-write failures trip
	// the daemon into degraded (memory-only) serving (default 3).
	StoreFailureThreshold int
	// StoreRetryInterval is how often a degraded daemon probes the store with
	// a real write to restore durable mode (default 15s).
	StoreRetryInterval time.Duration
	// RunHook, when set, runs before every computation's workload with the
	// computation's context and key; a non-nil error fails the computation.
	// It is the fault-injection seam: tests and `serve -chaos` use it to add
	// latency or errors to otherwise-instant workloads.
	RunHook func(ctx context.Context, key string) error
	// IngestRate caps /v1/depdb admission at roughly this many records per
	// second (token bucket; batches cost their record count). 0 disables the
	// limit. Over-limit requests get 429 with a Retry-After the Client's
	// backoff honors, so agent fleets self-pace through churn storms.
	IngestRate float64
	// IngestBurst is the token bucket's depth (default: one second's worth
	// of IngestRate).
	IngestBurst float64
	// WatchBuffer bounds each watch subscription's event queue (default 16).
	// A subscriber that falls a full buffer behind is evicted rather than
	// allowed to stall the daemon or grow memory without limit.
	WatchBuffer int
	// Now overrides the clock the store circuit breaker and the ingest rate
	// limiter use (tests only).
	Now func() time.Time

	// Cluster, when set, joins the server to a fleet through its one seam
	// (see Cluster); nil is a standalone daemon, which refuses the peer-only
	// headers.
	Cluster Cluster
}

// Cluster is the one seam a clustered node — internal/cluster's *Node —
// plugs into the server through; the daemon itself has no cluster code.
type Cluster interface {
	// Executor wraps the in-process worker pool in the cluster's router,
	// which keeps the pool as its fallback. The returned executor owns the
	// pool's lifecycle: its Close/Wait must close and wait the pool.
	Executor(local Executor) Executor
	// Tier is the result tier probed after memory and disk on a miss — a
	// peer-cache tier. It is probed without the server's lock held and
	// synchronizes itself.
	Tier() ResultTier
	// Replicate is called by the ingest committer after a commit group lands
	// locally and before its waiters are acknowledged, with the wire records
	// of every locally originated (non-replicated) ingest in the group that
	// changed the database, so DepDB fingerprints converge across the fleet.
	Replicate(records []RecordWire)
	// Metrics returns the cluster's rows of the /metrics table, drawn after
	// the server's own.
	Metrics() []Metric
	// FromPeer reports whether r came from a node of the cluster: only then
	// are ForwardedHeader and ReplicatedHeader honoured.
	FromPeer(r *http.Request) bool
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
	if c.WatchBuffer <= 0 {
		c.WatchBuffer = 16
	}
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// computation is a prepared job's workload once admit has handed it to the
// executor: one unit of work, on which several coalesced jobs may wait. The
// queue, worker pool, cache and cancellation plumbing are shared across job
// kinds; what runs is the Workload.
type computation struct {
	*preparedJob // Key, kind — and job, the first one attached
	cancel       context.CancelFunc
	jobs         []*job // attached jobs, including canceled ones
	refs         int    // attached jobs still interested in the result
	running      bool   // the executor started it (guarded by Server.mu)
	// trace records the computation's pipeline phases; it is carried down to
	// sia/riskgroup/delta through the computation context. queueDone closes
	// the queue-wait phase when a worker picks the computation up.
	trace     *telemetry.Trace
	queueDone func()
}

// job is one client submission: a handle on its result (key, title,
// provenance) — a done job's payload is whatever the tiers hold under key.
type job struct {
	id    string
	key   string
	title string
	state string
	// prov is how the job came by its result (see provenance). Two facts are
	// orthogonal to it: partial — the job's computation, its own or the one
	// it coalesced onto, re-audits only dirtySubjects' deployments and
	// splices the rest from held audits — and recovered, below.
	prov          provenance
	partial       bool
	dirtySubjects []string
	submitted     time.Time
	started       time.Time
	finished      time.Time
	err           error
	done          chan struct{} // closed when the job reaches a terminal state
	comp          *computation  // nil once terminal or when served from cache
	// timeout is this job's run-time cap; the watchdog timer is armed when
	// the job enters StateRunning (also for jobs coalescing onto an
	// already-running computation), so each coalesced job keeps its own
	// deadline without imposing it on the shared computation.
	timeout time.Duration
	timer   *time.Timer
	// journaled means a job/<id> record is on disk and must be tombstoned
	// when the job settles: bookkeeping, not provenance — whoever flips it
	// off has claimed the tombstone (guarded by Server.mu; see journal.go).
	journaled bool
	// recovered marks a job replayed from the journal after a crash.
	recovered bool
	// trace is the attached computation's phase trace (shared by every
	// coalesced job); nil for jobs served from a tier hit, so the hit path
	// allocates nothing for telemetry.
	trace *telemetry.Trace
}

// bornDone is the done channel of every job that was terminal when it was
// admitted — a hit: closed from the start, shared, never waited on.
var bornDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (j *job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// Server is the audit service. Create with New, serve via Handler (any
// net/http server) and stop with Shutdown.
type Server struct {
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc
	// exec runs every computation: the in-process worker pool, or whatever
	// Config.Cluster put in front of it (a cluster router).
	exec Executor
	wg   sync.WaitGroup
	m    metrics
	// tiers is the result-tier probe chain: tiers[0] is always the memory
	// LRU (aliased as cache), then disk when a store is configured, then the
	// cluster's tier.
	tiers []ResultTier

	mu   sync.Mutex
	db   *depdb.DB // cfg.DB, or created lazily by the first ingest
	jobs map[string]*job
	// order[head:] are the live job IDs in submission order (see pruneLocked).
	order  []string
	head   int
	cache  *memoryTier
	closed bool
	// inflight maps a content address to its queued or running *computation.
	// Written only under mu; the lock-free resolve stage peeks at it to skip
	// lower-tier probes that cannot hit yet.
	inflight sync.Map
	// nextID is the last job id handed out (see allocID); off the lock so a
	// miss can be journaled under its id before it is admitted.
	nextID atomic.Uint64
	// providers is the registered private-audit dataset registry (see
	// privateaudit.go), persisted under pia/provider/ store keys.
	providers map[string]providerDataset
	// audits and scores are the delta memos (see delta.go): decoded audit
	// results and candidate scores by content address, each behind its own
	// lock.
	audits *memo[*report.Report]
	scores *memo[placement.Score]

	store *store.Store // cfg.Store; nil for a memory-only service
	// breaker trips the daemon into degraded (memory-only) serving after
	// repeated store-write failures; see breaker.go.
	breaker *breaker
	// ingestMu serializes ingests with their snapshot persistence so the
	// durable current-snapshot pointer can never lag a concurrent ingest.
	// snapMeta (the persisted snapshot chain's state) is guarded by it.
	// snapDirty records that the next durable ingest must lay down a fresh
	// full base segment: an ingest was committed in memory only while
	// degraded, so the persisted chain lags the live database — or the
	// database compacted its log, so the chain replays history the database
	// itself has let go of.
	ingestMu  sync.Mutex
	snapMeta  snapMeta
	snapDirty bool
	// ingestCh feeds admitted ingest batches to the single committer
	// goroutine, which group-commits everything waiting as one snapshot
	// segment (see ingest.go). ingestWG counts admitted waiters not yet
	// handed over, so Shutdown can close the channel safely; ingestLimit is
	// the admission token bucket (nil = unlimited).
	ingestCh    chan *ingestWaiter
	ingestWG    sync.WaitGroup
	ingestLimit *tokenBucket

	// watchHub routes ingest touches to /v1/watch subscriptions; watchWG
	// tracks their refresher goroutines (see watch.go).
	watchHub *watch.Hub
	watchWG  sync.WaitGroup

	// began anchors auditd_uptime_seconds and /healthz's uptime field.
	began time.Time
}

// New starts a service with cfg's worker pool running. Callers own the HTTP
// side: mount Handler on any server. Call Shutdown to stop.
func New(cfg Config) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		baseCtx:   ctx,
		stop:      cancel,
		db:        cfg.DB,
		jobs:      make(map[string]*job),
		providers: make(map[string]providerDataset),
		cache:     newMemoryTier(cfg.CacheEntries),
		audits:    newMemo[*report.Report](heldAudits),
		scores:    newMemo[placement.Score](heldScores),
		store:     cfg.Store,
		breaker:   newBreaker(cfg.StoreFailureThreshold, cfg.StoreRetryInterval, cfg.Now),
		ingestCh:  make(chan *ingestWaiter, maxIngestGroup),
		watchHub:  watch.NewHub(),
		began:     time.Now(),
	}
	s.ingestLimit = newTokenBucket(cfg.IngestRate, cfg.IngestBurst, cfg.Now)
	// Assemble the result-tier chain: memory, then disk, then the cluster's.
	// The executor owns the worker pool; a cluster interposes its router.
	s.tiers = append(s.tiers, s.cache)
	if s.store != nil {
		s.tiers = append(s.tiers, &diskTier{st: s.store})
	}
	s.exec = newLocalExecutor(cfg.Workers, cfg.QueueDepth, &s.m, cfg.RunHook)
	if c := cfg.Cluster; c != nil {
		s.tiers = append(s.tiers, c.Tier())
		s.exec = c.Executor(s.exec)
	}
	if s.store != nil {
		// Resume the persisted snapshot chain where the store left it so the
		// next ingest appends a segment instead of restarting a generation.
		s.snapMeta = readSnapMeta(s.store)
		// Reload the private-audit provider registry before any request —
		// in particular before RecoverJobs replays journaled private audits
		// that reference registered datasets.
		s.restoreProviders()
	}
	s.wg.Add(1)
	go s.ingestCommitter()
	return s
}

// admit is the submit path's locked stage: with everything slow already done
// by resolveJob, it takes the job-table lock once and decides. A closing
// service refuses (503). A hit — found by resolve, or landed in the memory
// tier since resolve looked: a journal write is a long window — settles the
// job on the spot; an identical in-flight computation absorbs it; otherwise
// its computation is handed to the executor, or refused (429) if the queue is
// full. A refusal makes the journal record resolve may have written stale —
// except a *recovered* job's, which stays for the next boot to retry: the
// refusal is the service's condition, not the job's. Only submitJob calls it.
func (s *Server) admit(p *preparedJob) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := p.job
	if err := s.placeLocked(p); err != nil {
		s.m.Rejected.Add(1)
		p.staleJournal = j.journaled && !j.recovered
		return JobStatus{}, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.m.Submitted.Add(1)
	s.pruneLocked()
	return j.statusLocked(), nil
}

// placeLocked is admit's decision. Caller holds s.mu.
func (s *Server) placeLocked(p *preparedJob) error {
	if s.closed {
		return &statusErr{code: 503, err: errors.New("service is shutting down")}
	}
	if p.prov == provComputed {
		if r, ok := s.cache.Get(p.Key); ok {
			p.prov, p.hit = provMemoryHit, r
		}
	}
	if p.prov.hit() {
		s.settleHitLocked(p)
	} else if comp, ok := s.inflight.Load(p.Key); ok {
		s.coalesceLocked(p, comp.(*computation))
	} else {
		return s.startLocked(p)
	}
	return nil
}

// settleHitLocked finishes a job whose content address a result tier already
// answers: instantly, never touching the queue. A disk hit serves a result
// computed before a restart (or evicted from memory) uncomputed. Caller holds
// s.mu.
func (s *Server) settleHitLocked(p *preparedJob) {
	j := p.job
	j.state = StateDone
	j.prov = p.prov
	j.started, j.finished = j.submitted, j.submitted
	j.done = bornDone
	s.m.JobDuration.Observe(time.Since(j.submitted)) // ≈0 in memory; the probe for lower-tier hits
	if p.prov == provDiskHit {
		s.m.StoreHits.Add(1)
	} else {
		s.m.CacheHits.Add(1)
	}
	if on := p.hit.computedOn; on != "" && on != p.DBFingerprint {
		// The database moved since this process computed the result, and
		// every change missed the records the job reads.
		s.m.DeltaHits.Add(1)
	}
	if j.journaled {
		// The hit landed after the journal write, or this is a recovered job
		// whose result was durable all along: the record has done its work.
		j.journaled = false
		p.staleJournal = true
	}
}

// coalesceLocked attaches a job to the identical computation already queued
// or running. Caller holds s.mu.
func (s *Server) coalesceLocked(p *preparedJob, comp *computation) {
	j := p.job
	j.state = StateQueued
	if comp.running {
		j.state = StateRunning
		j.started = time.Now()
		s.armTimeoutLocked(j)
	}
	j.prov = provCoalesced
	j.partial, j.dirtySubjects = p.partial, p.dirty
	j.done = make(chan struct{})
	j.comp = comp
	j.trace = comp.trace
	comp.jobs = append(comp.jobs, j)
	comp.refs++
	s.m.Coalesced.Add(1)
}

// startLocked hands a job's own computation to the executor; a saturated
// executor refuses the submission with 429. Caller holds s.mu.
func (s *Server) startLocked(p *preparedJob) error {
	j := p.job
	// A computation will actually run: this is the only path that pays for a
	// trace. Backdating it to the submission instant puts the journal write
	// and queue time inside queue-wait instead of leaving an unaccounted gap
	// before the first phase.
	tr := telemetry.NewAt(j.submitted)
	cctx, cancel := context.WithCancel(telemetry.WithTrace(s.baseCtx, tr))
	comp := &computation{
		preparedJob: p,
		cancel:      cancel,
		jobs:        []*job{j},
		refs:        1,
		trace:       tr,
		queueDone:   tr.StartAt("queue-wait", j.submitted),
	}
	cb := ExecCallbacks{
		Started: func() { s.compStarted(comp) },
		Done:    func(res any, err error) { s.compDone(comp, res, err) },
	}
	if err := s.exec.Submit(cctx, &p.Workload, cb); err != nil {
		cancel()
		return &statusErr{code: 429, err: fmt.Errorf("queue full (%d computations pending)", s.cfg.QueueDepth)}
	}
	j.state = StateQueued
	j.done = make(chan struct{})
	j.comp = comp
	j.trace = tr
	s.inflight.Store(p.Key, comp)
	s.m.CacheMisses.Add(1)
	if p.partial {
		j.partial, j.dirtySubjects = true, p.dirty
		s.m.DeltaPartials.Add(1)
		s.m.DeltaDirtySubjects.Add(int64(len(p.dirty)))
	}
	return nil
}

// pruneLocked evicts the oldest terminal jobs beyond the retention bound so
// the job table stays finite in an always-on daemon. Active jobs are never
// evicted. A full table evicts on every submit, hit path included, so
// eviction is O(1): the oldest terminal job is almost always at the head, and
// any active jobs ahead of it move up one slot instead of the whole tail
// moving down. Caller holds s.mu.
func (s *Server) pruneLocked() {
	if s.cfg.JobRetention < 0 {
		return
	}
	for len(s.jobs) > s.cfg.JobRetention {
		i := s.head
		for i < len(s.order) && !s.jobs[s.order[i]].terminal() {
			i++
		}
		if i == len(s.order) {
			return // everything is in flight; try again on the next submit
		}
		delete(s.jobs, s.order[i])
		copy(s.order[s.head+1:i+1], s.order[s.head:i])
		s.order[s.head] = ""
		s.head++
	}
	if s.head > len(s.order)/2 {
		// The dead prefix outgrew the live tail: slide the tail down — O(1)
		// amortised, and the slice never exceeds twice the live table.
		s.order = s.order[:copy(s.order, s.order[s.head:])]
		s.head = 0
	}
}

// armTimeoutLocked starts a job's run-time watchdog. Caller holds s.mu and
// has just moved the job into StateRunning.
func (s *Server) armTimeoutLocked(j *job) {
	if j.timeout <= 0 || j.timer != nil {
		return
	}
	d, id := j.timeout, j.id
	j.timer = time.AfterFunc(d, func() {
		s.expireJob(id, d)
	})
}

// compStarted is the executor's Started callback: the computation left the
// queue and is about to run. It closes the queue-wait phase and moves every
// attached job into StateRunning.
func (s *Server) compStarted(comp *computation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	comp.running = true
	now := time.Now()
	comp.queueDone()
	s.m.QueueWait.Observe(now.Sub(comp.job.submitted))
	for _, j := range comp.jobs {
		if !j.terminal() {
			j.state = StateRunning
			j.started = now
			s.armTimeoutLocked(j)
		}
	}
}

// compDone is the executor's Done callback: the computation finished, or was
// discarded while queued — then running is still false and err carries the
// cancellation. It encodes the result — the one encode it ever gets; a
// result handed over as bytes already (a cluster owner's report body) is kept
// as it is — persists it, caches it, settles every attached job and
// tombstones their journals.
func (s *Server) compDone(comp *computation, res any, err error) {
	enc, relayed := res.(*EncodedResult)
	if err == nil && !relayed {
		// A result the codec cannot express (an Inf, a nil) fails the job
		// here rather than every later read; nothing is cached or persisted.
		endEncode := comp.trace.Start("encode")
		start := time.Now()
		enc, err = encodeResult(comp.kind, res)
		s.m.ResultEncode.ObserveSince(start)
		endEncode()
		if err != nil {
			err = fmt.Errorf("encode result: %w", err)
		} else {
			enc.computedOn = comp.DBFingerprint
		}
	}
	if err == nil && s.store != nil {
		// Write through to the disk store BEFORE any waiter observes "done":
		// a client that sees its job complete may kill -9 the daemon
		// immediately and must still find the result after restart.
		endPersist := comp.trace.Start("persist")
		s.dropCached(s.persistResult("job "+comp.job.id, comp.Key, enc), comp.Key)
		endPersist()
	}

	s.mu.Lock()
	if !comp.running {
		comp.queueDone() // don't leave the phase open on the dead trace
	}
	comp.cancel() // release the context's timer resources
	s.inflight.CompareAndDelete(comp.Key, comp)
	if err == nil {
		s.cache.Put(comp.Key, enc)
	}
	now := time.Now()
	for _, j := range comp.jobs {
		if !j.terminal() { // else canceled individually earlier
			s.m.JobDuration.Observe(now.Sub(j.submitted))
			s.settleLocked(j, now, err)
		}
	}
	cleared := journaledIDsLocked(comp.jobs)
	s.mu.Unlock()
	// The jobs are settled and (on success) the result is durable: their
	// journal records have done their work.
	s.clearJournals(cleared)
}

// settleLocked moves a non-terminal job into its terminal state — the one
// place that happens once a job has left admit: done for a nil err, canceled
// for a cancellation or an elapsed deadline, failed otherwise. Caller holds
// s.mu.
func (s *Server) settleLocked(j *job, now time.Time, err error) {
	if j.timer != nil {
		j.timer.Stop()
	}
	j.finished, j.comp, j.err = now, nil, err
	switch {
	case err == nil:
		j.state = StateDone
		s.m.Completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		s.m.Canceled.Add(1)
	default:
		j.state = StateFailed
		s.m.Failed.Add(1)
	}
	close(j.done)
}

// Cancel cancels a job (idempotent). Canceling the last job attached to a
// computation cancels the computation's context, which the RG algorithms
// observe within their poll interval, releasing the worker.
func (s *Server) Cancel(id string) (JobStatus, error) {
	return s.cancelJob(id, context.Canceled)
}

// expireJob cancels a job whose run-time cap elapsed. Only this job is
// detached; a computation shared with other jobs keeps running for them.
func (s *Server) expireJob(id string, after time.Duration) {
	s.cancelJob(id, fmt.Errorf("timed out after %v: %w", after, context.DeadlineExceeded))
}

// cancelJob moves a non-terminal job to StateCanceled with the given cause
// and detaches it from its computation, canceling the computation only when
// this was its last interested job. Its journal record goes too: a
// deliberately canceled job must not be resurrected at the next boot.
func (s *Server) cancelJob(id string, cause error) (JobStatus, error) {
	s.mu.Lock()
	j, err := s.jobLocked(id)
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	if comp := j.comp; !j.terminal() {
		s.settleLocked(j, time.Now(), cause)
		if comp.refs--; comp.refs == 0 {
			// Last interested job: stop the computation and unregister it so
			// new identical submissions start fresh instead of attaching to
			// a dying run.
			comp.cancel()
			s.inflight.CompareAndDelete(comp.Key, comp)
		}
	}
	st := j.statusLocked()
	cleared := journaledIDsLocked([]*job{j})
	s.mu.Unlock()
	s.clearJournals(cleared)
	return st, nil
}

// jobLocked looks a job up by id; unknown ids are a 404. Caller holds s.mu.
func (s *Server) jobLocked(id string) (*job, error) {
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, &statusErr{code: 404, err: fmt.Errorf("unknown job %q", id)}
}

// Status returns a job's current status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.jobLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.statusLocked(), nil
}

// WaitDone blocks until the job reaches a terminal state, the wait elapses,
// or ctx is done; it returns the status current at that moment.
func (s *Server) WaitDone(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j, err := s.jobLocked(id)
	s.mu.Unlock()
	if err != nil {
		return JobStatus{}, err
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-ctx.Done():
		}
	}
	// Render from the job we already hold: re-resolving the ID could 404 if
	// retention pruning evicted the just-completed job mid-wait.
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked(), nil
}

// resolve turns a finished job's handle into its result: the bytes its
// content address resolves to through the result tiers, the job's title, and
// the report struct when the audits memo happens to hold it. A 409 error means
// the job is not done (or was canceled/failed); a 410 that every tier has
// dropped the result since (a memory-only daemon past CacheEntries, a store
// that evicted it) — resubmitting the request recomputes it.
func (s *Server) resolve(id string) (*EncodedResult, string, *report.Report, error) {
	s.mu.Lock()
	j, err := s.jobLocked(id)
	if err == nil && j.state != StateDone {
		err = &statusErr{code: 409, err: fmt.Errorf("job %s is %s", id, j.state)}
	}
	if err != nil {
		s.mu.Unlock()
		return nil, "", nil, err
	}
	key, title := j.key, j.title
	s.mu.Unlock()
	rep, _ := s.audits.Get(key)
	enc, _, ok := s.retrieveResult(key, 0)
	if !ok {
		return nil, "", nil, &statusErr{code: http.StatusGone, err: fmt.Errorf("the result of job %s is no longer held (evicted from every result tier); resubmit the request to recompute it", id)}
	}
	return enc, title, rep, nil
}

// Result returns a finished job's payload as a struct under the job's title
// — a *report.Report, *RecommendResponse or *PrivateAuditResponse. Results
// are kept as bytes: unless the audits memo holds this very report the call
// decodes them, which is why HTTP serving never comes through here.
func (s *Server) Result(id string) (any, error) {
	enc, title, rep, err := s.resolve(id)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		titled := *rep // the held struct is shared: title a shallow copy
		titled.Title = title
		return &titled, nil
	}
	return s.materialize(enc, title)
}

// materialize decodes an encoded result for a consumer that needs a struct.
func (s *Server) materialize(enc *EncodedResult, title string) (any, error) {
	s.m.ResultDecodes.Add(1)
	res, err := enc.Decode(title)
	if err != nil {
		return nil, fmt.Errorf("decode stored result: %w", err)
	}
	return res, nil
}

// Report returns a finished audit job's report; see Result.
func (s *Server) Report(id string) (*report.Report, error) {
	res, err := s.Result(id)
	if err != nil {
		return nil, err
	}
	rep, ok := res.(*report.Report)
	if !ok {
		return nil, &statusErr{code: 409, err: fmt.Errorf("job %s is not an audit job", id)}
	}
	return rep, nil
}

// Cached returns the in-memory cached result for a content-address, if
// present. Deliberately memory-only: a clustered peer probes this endpoint
// through its peer tier, and answering from lower tiers here would let two
// nodes probe each other in a loop.
func (s *Server) Cached(key string) (*EncodedResult, error) {
	res, ok := s.cache.Get(key)
	if !ok {
		return nil, &statusErr{code: 404, err: fmt.Errorf("no cached result for %s", key)}
	}
	return res, nil
}

// Jobs lists every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, id := range s.order[s.head:] {
		out = append(out, s.jobs[id].statusLocked())
	}
	return out
}

// Trace returns a job's phase timeline and pipeline counts. Jobs served
// from a tier hit never ran a computation and have no phases; they return an
// empty timeline rather than an error.
func (s *Server) Trace(id string) (TraceResponse, error) {
	s.mu.Lock()
	j, err := s.jobLocked(id)
	if err != nil {
		s.mu.Unlock()
		return TraceResponse{}, err
	}
	resp := TraceResponse{ID: j.id, State: j.state}
	elapsed := time.Since(j.submitted)
	if !j.finished.IsZero() {
		elapsed = j.finished.Sub(j.submitted)
	}
	resp.ElapsedNS = elapsed.Nanoseconds()
	tr := j.trace
	s.mu.Unlock()
	// Snapshotting takes the trace's own lock; do it outside s.mu.
	resp.Phases = tr.Snapshot()
	resp.Counts = tr.Counts()
	return resp, nil
}

// appendJobSpan records a phase onto a settled job's trace after the fact —
// the watch refresher uses it to attach the notify span once the
// notification event is queued. Unknown or traceless jobs no-op.
func (s *Server) appendJobSpan(id, name string, start time.Time, d time.Duration) {
	s.mu.Lock()
	var tr *telemetry.Trace
	if j := s.jobs[id]; j != nil {
		tr = j.trace
	}
	s.mu.Unlock()
	tr.Span(name, start, d)
}

// Shutdown stops the service gracefully: new submissions and ingests are
// refused immediately, already-admitted ingests are group-committed, watch
// subscriptions are closed (their refreshers exit, their SSE streams end),
// and queued and running jobs keep going until done or until ctx expires,
// at which point their contexts are canceled and the pool drains as the RG
// algorithms observe the cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.exec.Close()
	s.mu.Unlock()

	// Every ingest admitted before closed flipped is either already on the
	// channel or about to be; wait those handoffs out, then close the channel
	// so the committer commits what is queued and exits.
	s.ingestWG.Wait()
	close(s.ingestCh)
	// Evict every watch subscription: refresher loops observe Done and
	// return; SSE handlers observe the closed event channels and return.
	s.watchHub.Close()

	done := make(chan struct{})
	go func() {
		s.exec.Wait()
		s.wg.Wait()
		s.watchWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop() // cancel every computation's context
		<-done
		return ctx.Err()
	}
}

// statusLocked renders the job's wire status, deriving the provenance
// booleans clients know from the one provenance value: a peer-tier hit
// renders as cached, like a memory hit. Caller holds s.mu (or owns the job
// exclusively).
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		CacheKey:      j.key,
		Cached:        j.prov == provMemoryHit || j.prov == provDiskHit || j.prov == provPeerHit,
		DiskHit:       j.prov == provDiskHit,
		Coalesced:     j.prov == provCoalesced,
		DeltaHit:      j.partial,
		DirtySubjects: j.dirtySubjects,
		Recovered:     j.recovered,
		SubmittedAt:   j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.trace != nil {
		st.Trace = j.trace.Snapshot()
		st.TraceCounts = j.trace.Counts()
	}
	return st
}

// statusErr pairs an error with the HTTP status it should map to. On the
// client side it also carries the server's Retry-After hint, which the
// backoff honors.
type statusErr struct {
	code       int
	err        error
	retryAfter time.Duration
}

func (e *statusErr) Error() string { return e.err.Error() }
func (e *statusErr) Unwrap() error { return e.err }

// httpStatus extracts the status code, defaulting to 500.
func httpStatus(err error) int {
	var se *statusErr
	if errors.As(err, &se) {
		return se.code
	}
	return 500
}
