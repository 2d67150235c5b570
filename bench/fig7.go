package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/riskgroup"
	"indaas/internal/sia"
)

// oracleEvery is the stride of the byte-for-byte oracle check: every
// oracleEvery-th operation's report is recomputed locally and compared.
const oracleEvery = 16

// fig7 is the paper's Fig. 7 / Table 3 measurement as a service workload:
// every operation audits a never-seen cross-pod two-server deployment over
// fat-tree network records, with the exact minimal-RG algorithm
// (fig7_exact, k=16) or failure sampling (fig7_sampling, k=8, 10⁵ rounds).
type fig7 struct {
	k        int
	sampling bool

	ps   pods
	recs []deps.Record

	mu    sync.Mutex
	seen  map[int]answer  // op index → what the daemon answered
	local *depdb.Snapshot // harness-side copy of the ingested data
}

// answer is what the harness keeps of one operation's report.
type answer struct {
	rgs    int
	digest [sha256.Size]byte
	report *report.Report // kept for every oracleEvery-th operation only
}

const samplingRounds = 100_000

func (f *fig7) tag() string {
	if f.sampling {
		return "fig7s"
	}
	return "fig7x"
}

// request is operation i's audit request: a function of (seed, i) only.
func (f *fig7) request(tag string, seed int64, i int) *auditd.SubmitRequest {
	a, b := f.ps.pair(seed, i)
	req := deployment(tag, seed, i, a, b)
	if f.sampling {
		req.Algorithm = "failure-sampling"
		req.Rounds = samplingRounds
		// A well-separated sampler seed per operation; sampler_workers stays
		// at the service default.
		req.Seed = int64(mix(seed, uint64(i)+1<<40)>>1) | 1
	}
	return req
}

func (f *fig7) setup(e *env) error {
	var err error
	// Two servers in every pod: 32 servers at k=16, as in the paper's
	// two-way deployments, and every pair of pods is a candidate.
	if f.ps, f.recs, err = fatTreeInputs(f.k, 2); err != nil {
		return err
	}
	if err := e.boot(false); err != nil {
		return err
	}
	if _, err := e.cl.Ingest(e.ctx, auditd.WireRecords(f.recs)); err != nil {
		return fmt.Errorf("bootstrap ingest: %w", err)
	}
	// Priming: a fixed number of operations, so connections, the worker
	// pool and the allocator are warm and set-up time scales with the cost
	// of an operation rather than with a wall-clock constant.
	warm := e.closedLoop(e.clients, 0, 4*e.clients, func(i int) (time.Duration, error) {
		_, err := audit(e.ctx, e.cl, f.request("warm", e.seed, i), cold)
		return 0, err
	})
	if len(warm.lats) != warm.attempted {
		return fmt.Errorf("warm-up: %d of %d operations failed", warm.attempted-len(warm.lats), warm.attempted)
	}
	return nil
}

func (f *fig7) run(e *env) error {
	f.seen = map[int]answer{}
	mainDur := e.window * 4 / 5

	// Phase "op": cold audits, closed loop.
	s0, p0 := e.d.svc.Stats(), sampleProc()
	main := e.closedLoop(e.clients, mainDur, 0, func(i int) (time.Duration, error) {
		req := f.request(f.tag(), e.seed, i)
		t0 := time.Now()
		rep, err := audit(e.ctx, e.cl, req, cold)
		lat := time.Since(t0)
		if err != nil {
			return 0, err
		}
		a := answer{rgs: len(rep.Audits[0].RGs), digest: digest(rep)}
		if i%oracleEvery == 0 {
			a.report = rep
		}
		f.mu.Lock()
		f.seen[i] = a
		f.mu.Unlock()
		return lat, nil
	})
	s1, p1 := e.d.svc.Stats(), sampleProc()
	if err := e.reportLatencies("op", main); err != nil {
		return err
	}
	e.set("ops_per_s", main.perSecond(), len(main.lats))
	e.setProcess(p0, p1, len(main.lats))
	e.setProvenance(s0, s1, main.attempted)
	e.check("every op phase submit computed exactly once",
		wantCounts(s0, s1, counts{computations: int64(main.attempted)}))

	// Phase "op2": a repeat reader re-submits requests the daemon already
	// answered (the most recent ones, which the memory tier still holds) and
	// fetches the report again.
	done := make([]int, 0, len(f.seen))
	for i := 0; i < main.attempted; i++ {
		if _, ok := f.seen[i]; ok {
			done = append(done, i)
		}
	}
	if len(done) > 256 {
		done = done[len(done)-256:]
	}
	if len(done) == 0 {
		return fmt.Errorf("no operation completed in the op phase")
	}
	reread := e.closedLoop(e.clients, e.window-mainDur, 0, func(j int) (time.Duration, error) {
		i := done[int(mix(e.seed^0x72657265, uint64(j))%uint64(len(done)))]
		req := f.request(f.tag(), e.seed, i)
		t0 := time.Now()
		rep, err := audit(e.ctx, e.cl, req, fromMem)
		lat := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if digest(rep) != f.seen[i].digest {
			return 0, fmt.Errorf("re-read of op %d differs from its first read", i)
		}
		return lat, nil
	})
	s2 := e.d.svc.Stats()
	if err := e.reportLatencies("op2", reread); err != nil {
		return err
	}
	e.check("every op2 phase submit was a memory hit",
		wantCounts(s1, s2, counts{memoryHits: int64(reread.attempted)}))
	e.set("peak_rss_mb", peakRSSMB(), 0)

	f.oracle(e)
	return nil
}

// snapshot is the harness-side database fed the records the daemon was fed.
func (f *fig7) snapshot() (*depdb.Snapshot, error) {
	if f.local == nil {
		db := depdb.New()
		if err := db.Put(f.recs...); err != nil {
			return nil, err
		}
		f.local = db.Snapshot()
	}
	return f.local, nil
}

// spec and options reproduce what the daemon derives from a request.
func (f *fig7) spec(req *auditd.SubmitRequest) ([]sia.GraphSpec, sia.Options) {
	d := req.Deployments[0]
	opts := sia.Options{Algorithm: sia.MinimalRG}
	if f.sampling {
		opts = sia.Options{Algorithm: sia.FailureSampling, Rounds: req.Rounds, Seed: req.Seed, Workers: 1}
	}
	return []sia.GraphSpec{{Deployment: d.Name, Servers: d.Servers}}, opts
}

// oracle checks the reports outside the timed windows: every exact report
// has the RG count a direct riskgroup.MinimalRGs run finds for a cross-pod
// pair (all pairs are isomorphic), and every kept report is byte-equal,
// clock fields aside, to sia.AuditDeployments on the local database — for
// sampling that is a direct Sampler run with the operation's seed.
func (f *fig7) oracle(e *env) {
	snap, err := f.snapshot()
	if err != nil {
		e.check("oracle database", err)
		return
	}
	if !f.sampling {
		specs, _ := f.spec(f.request("oracle", e.seed, 0))
		g, err := sia.BuildGraph(snap, specs[0])
		var fam []riskgroup.RG
		if err == nil {
			fam, err = riskgroup.MinimalRGs(g, riskgroup.MinimalOptions{})
		}
		if err != nil {
			e.check("oracle minimal RGs", err)
			return
		}
		for i, a := range f.seen {
			if a.rgs != len(fam) {
				e.fail("op %d: report has %d RGs, riskgroup.MinimalRGs finds %d", i, a.rgs, len(fam))
			}
		}
	}
	for i, a := range f.seen {
		if a.report == nil {
			continue
		}
		rep := a.report
		req := f.request(f.tag(), e.seed, i)
		specs, opts := f.spec(req)
		want, err := sia.AuditDeployments(snap, req.Title, specs, opts)
		if err == nil && !bytes.Equal(canonical(rep), canonical(want)) {
			err = fmt.Errorf("report differs from sia.AuditDeployments on the same records")
		}
		e.check(fmt.Sprintf("oracle op %d", i), err)
	}
}

// ladder replays cold audits one layer further in at each rung.
func (f *fig7) ladder(e *env) error {
	snap, err := f.snapshot()
	if err != nil {
		return err
	}
	req := func(rung string, i int) *auditd.SubmitRequest { return f.request(f.tag()+"-"+rung, e.seed, i) }
	e.runAuditLadder(e.auditLadder(req, cold, snap, f.spec), func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := audit(e.ctx, e.cl, req("plain", i), cold)
		return time.Since(t0), err
	}, samplingRounds)
	e.hitProbe(req("r0", 0)) // computed by the ladder's first rung
	return nil
}

func (f *fig7) close() {}
