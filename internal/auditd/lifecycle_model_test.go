package auditd

// TestJobLifecycleModel checks the job state machine by construction rather
// than by provocation: a manual executor holds every submitted workload until
// the test fires its Started / Done callbacks, timeouts are driven by calling
// expireJob, and seeded random sequences of submit / cancel / timeout /
// complete / fail / discard / ingest / Shutdown run on one goroutine — so
// every interleaving is an ordering of calls, reproducible from its seed, and
// nothing ever waits on a clock. After every step the whole job table is
// checked against the invariants in modelRun.check.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"indaas/internal/deps"
	"indaas/internal/store"
)

// manualExecutor is an Executor whose queue only moves when the test says
// so. It wraps the server's real pool (which stays idle) for Execute — the
// panic barrier and the actual computation — and for lifecycle.
type manualExecutor struct {
	local    Executor
	capacity int // accepted-but-unfinished workloads it holds before refusing

	mu      sync.Mutex
	closed  bool
	pending []*heldWorkload
}

type heldWorkload struct {
	ctx     context.Context
	w       *Workload
	cb      ExecCallbacks
	started bool
}

func (m *manualExecutor) Submit(ctx context.Context, w *Workload, cb ExecCallbacks) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("executor is closed")
	}
	if len(m.pending) >= m.capacity {
		return errExecutorSaturated
	}
	m.pending = append(m.pending, &heldWorkload{ctx: ctx, w: w, cb: cb})
	return nil
}

func (m *manualExecutor) Execute(ctx context.Context, w *Workload) (any, error) {
	return m.local.Execute(ctx, w)
}

func (m *manualExecutor) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

func (m *manualExecutor) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.local.Close()
}

// Wait does not wait for held workloads: the test, not a worker, drains them,
// and it does so after Shutdown returned — as a real pool's workers keep
// finishing accepted work while Shutdown waits.
func (m *manualExecutor) Wait() { m.local.Wait() }

// held returns one of the held workloads that are (or are not) started,
// chosen by pick; nil if there is none.
func (m *manualExecutor) held(started bool, pick func(n int) int) *heldWorkload {
	m.mu.Lock()
	defer m.mu.Unlock()
	var match []*heldWorkload
	for _, h := range m.pending {
		if h.started == started {
			match = append(match, h)
		}
	}
	if len(match) == 0 {
		return nil
	}
	return match[pick(len(match))]
}

// release drops a workload from the held set: the test is about to fire its
// Done callback.
func (m *manualExecutor) release(h *heldWorkload) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.pending {
		if p == h {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

func (m *manualExecutor) full() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending) >= m.capacity
}

// modelRun is one seeded run against one server.
type modelRun struct {
	t    *testing.T
	rng  *rand.Rand
	s    *Server
	st   *store.Store // nil for the store-less server
	exec *manualExecutor
	shut bool
	// seen remembers every job's last observed state, to catch a terminal
	// job changing its mind or a live job vanishing from the table.
	seen   map[string]string
	ingest int
	log    []string // the steps so far, printed when an invariant breaks
}

func (m *modelRun) failf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s\nsteps:\n  %s", fmt.Sprintf(format, args...), strings.Join(m.log, "\n  "))
}

// submission builds a request of a random kind and variant: few enough
// variants that identical content addresses recur (hits, coalescing), enough
// that distinct ones queue up behind each other.
func (m *modelRun) submission() (*jobKind, jobRequest) {
	v := m.rng.Intn(3)
	switch m.rng.Intn(5) {
	case 0, 1: // server-database audit: addressed by what it reads; the two-deployment variant splices
		deployments := [][]DeploymentWire{
			{{Name: "pair", Servers: []string{"s1", "s2"}}},
			{{Name: "one", Servers: []string{"s1"}}, {Name: "two", Servers: []string{"s2"}}},
			{{Name: "two", Servers: []string{"s2"}}},
		}
		return auditKind, &SubmitRequest{Deployments: deployments[v], TimeoutMS: int64(m.rng.Intn(2)) * 3_600_000}
	case 2:
		req := quickRequest("inline")
		req.MaxSize = v
		return auditKind, req
	case 3:
		req := recommendRequest("model")
		req.TopK = v + 1
		return recommendKind, req
	default:
		req := kindFixtures[KindPrivateAudit].request("model").(*PrivateAuditRequest)
		req.MinHashThreshold = 100 * v
		return privateAuditKind, req
	}
}

func (m *modelRun) randomJob() string {
	ids := make([]string, 0, len(m.seen))
	for id := range m.seen {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return "job-000000"
	}
	sort.Strings(ids)
	return ids[m.rng.Intn(len(ids))]
}

// step performs one random operation. Shutdown is only drawn late in a run
// (mayShut), so most of it exercises a service that still accepts work.
func (m *modelRun) step(mayShut bool) {
	note := func(format string, args ...any) { m.log = append(m.log, fmt.Sprintf(format, args...)) }
	switch op := m.rng.Intn(20); {
	case op < 6:
		k, req := m.submission()
		wasFull := m.exec.full()
		st, err := m.s.submitJob(k, req, origin{refresh: k == auditKind && m.rng.Intn(4) == 0})
		note("submit %s → %s %s %v", k.name, st.ID, st.State, err)
		switch code := httpStatus(err); {
		case err == nil && m.shut:
			m.failf("a closed service accepted %+v", st)
		case err == nil:
		case code == 503 && m.shut, code == 429 && wasFull:
		default:
			m.failf("submit: unexpected error %v (shut %v, executor full %v)", err, m.shut, wasFull)
		}
	case op < 10: // a worker picks a queued workload up — or discards a canceled one
		if h := m.exec.held(false, m.rng.Intn); h != nil {
			if err := h.ctx.Err(); err != nil {
				m.exec.release(h)
				note("discard %s", h.w.Key[:8])
				h.cb.Done(nil, err)
				return
			}
			h.started = true
			note("start %s", h.w.Key[:8])
			h.cb.Started()
		}
	case op < 14: // a started workload completes: really computed, behind the pool's panic barrier
		if h := m.exec.held(true, m.rng.Intn); h != nil {
			m.exec.release(h)
			res, err := m.exec.Execute(h.ctx, h.w)
			note("complete %s (%v)", h.w.Key[:8], err)
			h.cb.Done(res, err)
		}
	case op < 15:
		if h := m.exec.held(true, m.rng.Intn); h != nil {
			m.exec.release(h)
			note("fail %s", h.w.Key[:8])
			h.cb.Done(nil, errors.New("injected failure"))
		}
	case op < 17:
		id := m.randomJob()
		_, err := m.s.Cancel(id)
		note("cancel %s → %v", id, err)
	case op < 18:
		id := m.randomJob()
		note("expire %s", id)
		m.s.expireJob(id, time.Hour)
	case op < 19 || !mayShut || m.shut:
		m.ingest++
		rec := deps.NewHardware("spare", "NIC", fmt.Sprintf("nic-%d", m.ingest)) // misses every audited server
		if m.rng.Intn(2) == 0 {
			rec = deps.NewHardware("s1", "Disk", fmt.Sprintf("S1-%d", m.ingest)) // dirties s1
		}
		_, err := m.s.Ingest(&IngestRequest{Records: WireRecords([]deps.Record{rec})})
		note("ingest %v → %v", rec, err)
		if (err != nil) != m.shut {
			m.failf("ingest: err %v with shut=%v", err, m.shut)
		}
	default:
		m.shut = true
		note("shutdown")
		if err := m.s.Shutdown(context.Background()); err != nil {
			m.failf("Shutdown: %v", err)
		}
	}
}

// check asserts the invariants of the job table, between any two steps.
func (m *modelRun) check() {
	m.t.Helper()
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()

	if live := len(s.order) - s.head; live != len(s.jobs) {
		m.failf("order holds %d live ids, the table %d jobs", live, len(s.jobs))
	}
	attached := make(map[*computation]int) // non-terminal jobs per computation
	journaled := make(map[string]bool)     // ids of non-terminal journaled jobs
	for id, j := range s.jobs {
		// 1. One terminal state, entered once, and done closed exactly then
		// (a second close would have panicked).
		select {
		case <-j.done:
			if !j.terminal() {
				m.failf("%s: done is closed in state %s", id, j.state)
			}
		default:
			if j.terminal() {
				m.failf("%s: %s but done is still open", id, j.state)
			}
		}
		if was, ok := m.seen[id]; ok && was != j.state && (was == StateDone || was == StateFailed || was == StateCanceled) {
			m.failf("%s left terminal state %s for %s", id, was, j.state)
		}
		m.seen[id] = j.state
		// 4. Only the enum's legal provenance values, in their legal shapes.
		switch {
		case j.prov > provCoalesced:
			m.failf("%s: provenance %d is outside the enum", id, j.prov)
		case j.prov.hit() && (j.state != StateDone || j.trace != nil || j.partial || len(j.dirtySubjects) > 0):
			m.failf("%s: a hit (provenance %d) in state %s, trace %v, partial %v", id, j.prov, j.state, j.trace != nil, j.partial)
		case !j.prov.hit() && j.trace == nil:
			m.failf("%s: a computed or coalesced job without a trace", id)
		case !j.partial && len(j.dirtySubjects) > 0:
			m.failf("%s: dirty subjects %v on a job that splices nothing", id, j.dirtySubjects)
		}
		if j.terminal() {
			if j.comp != nil || j.journaled {
				m.failf("%s: terminal (%s) but comp %v, journaled %v", id, j.state, j.comp != nil, j.journaled)
			}
			continue
		}
		if j.comp == nil {
			m.failf("%s: %s without a computation", id, j.state)
		}
		attached[j.comp]++
		if j.journaled {
			journaled[journalKey(id)] = true
		}
	}
	for id, was := range m.seen {
		if _, ok := s.jobs[id]; !ok && was != StateDone && was != StateFailed && was != StateCanceled {
			m.failf("%s vanished from the table while %s", id, was)
		}
	}
	// 2 + 3. refs counts the attached non-terminal jobs, and a key is in
	// flight exactly while a computation with interested jobs exists for it.
	inflight := 0
	s.inflight.Range(func(key, v any) bool {
		inflight++
		comp := v.(*computation)
		if comp.Key != key.(string) || attached[comp] == 0 {
			m.failf("inflight[%s] is a computation with %d interested jobs (refs %d)", key, attached[comp], comp.refs)
		}
		return true
	})
	for comp, n := range attached {
		if comp.refs != n {
			m.failf("computation %s: refs = %d, but %d non-terminal jobs are attached", comp.Key[:8], comp.refs, n)
		}
		if v, ok := s.inflight.Load(comp.Key); !ok || v.(*computation) != comp {
			m.failf("computation %s has %d interested jobs but is not in flight", comp.Key[:8], n)
		}
	}
	if inflight != len(attached) {
		m.failf("%d keys in flight, %d computations with interested jobs", inflight, len(attached))
	}
	// 5. Every accepted job is counted exactly once.
	c := &s.m
	hits := c.CacheHits.Load() + c.StoreHits.Load()
	if got := hits + c.Coalesced.Load() + c.CacheMisses.Load(); got != c.Submitted.Load() {
		m.failf("submitted = %d, but hits %d + coalesced %d + misses %d = %d", c.Submitted.Load(), hits, c.Coalesced.Load(), c.CacheMisses.Load(), got)
	}
	// 6. The journal on disk is exactly the non-terminal journaled jobs: the
	// run is single-threaded, so every moment between steps is quiescent.
	if m.st != nil {
		onDisk := journalEntries(m.st)
		if len(onDisk) != len(journaled) {
			m.failf("journal on disk = %v, non-terminal journaled jobs = %v", onDisk, journaled)
		}
		for _, key := range onDisk {
			if !journaled[key] {
				m.failf("journal record %s belongs to no live job (live: %v)", key, journaled)
			}
		}
	}
}

// drain finishes every held workload, as a pool's workers do.
func (m *modelRun) drain() {
	for {
		first := func(int) int { return 0 }
		h := m.exec.held(false, first)
		if h == nil {
			h = m.exec.held(true, first)
		}
		if h == nil {
			return
		}
		m.exec.release(h)
		if err := h.ctx.Err(); err != nil && !h.started {
			h.cb.Done(nil, err)
		} else {
			if !h.started {
				h.cb.Started()
			}
			h.cb.Done(m.exec.Execute(h.ctx, h.w))
		}
		m.log = append(m.log, "drain "+h.w.Key[:8])
		m.check()
	}
}

func TestJobLifecycleModel(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "store-less", true: "durable"}[durable]
		t.Run(name, func(t *testing.T) {
			reached := make(map[string]int64) // paths the runs took, summed over seeds
			for seed := 1; seed <= seeds; seed++ {
				m := &modelRun{t: t, rng: rand.New(rand.NewSource(int64(seed))), seen: make(map[string]string)}
				m.log = append(m.log, fmt.Sprintf("seed %d (%s)", seed, name))
				// Small bounds, so eviction from every structure is routine:
				// the memory tier, the job table, the executor's queue.
				cfg := Config{Workers: 1, CacheEntries: 3, JobRetention: 12, Cluster: &fakeCluster{exec: func(local Executor) Executor {
					m.exec = &manualExecutor{local: local, capacity: 4}
					return m.exec
				}}}
				if durable {
					m.st = openStore(t, t.TempDir())
					cfg.Store = m.st
				}
				m.s = New(cfg)
				mustIngest(t, m.s, testRecords())
				const steps = 200
				for i := 0; i < steps; i++ {
					m.step(i > steps*3/4)
					m.check()
				}
				m.drain()
				if !m.shut {
					if err := m.s.Shutdown(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.s.Submit(quickRequest("late")); httpStatus(err) != 503 {
					m.failf("submit after Shutdown: %v, want 503", err)
				}
				m.check()
				for id, state := range m.seen {
					if state != StateDone && state != StateFailed && state != StateCanceled {
						m.failf("%s is still %s after the executor drained", id, state)
					}
				}
				st := m.s.Stats()
				for path, n := range map[string]int64{
					"memory hit": st.CacheHits, "disk hit": st.StoreHits, "partial": st.DeltaPartials,
					"coalesced": st.Coalesced, "computed": st.CacheMisses, "rejected": st.Rejected,
					"completed": st.Completed, "failed": st.Failed, "canceled": st.Canceled,
				} {
					reached[path] += n
				}
				if m.st != nil {
					m.st.Close()
				}
			}
			// The invariants only mean something over the paths the runs took.
			for path, n := range reached {
				if n == 0 && (durable || path != "disk hit") {
					t.Errorf("no run reached the %q path", path)
				}
			}
			t.Logf("paths reached: %v", reached)
		})
	}
}
