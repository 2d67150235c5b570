package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/report"
)

// procStart anchors setup_s: package initialisation is the earliest moment
// the process can observe.
var procStart = time.Now()

// value is one reported number with its unit and, for statistics over
// samples, how many samples stand behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one workload process reports to its parent.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Clients   int              `json:"clients"`
	WindowS   float64          `json:"window_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"` // first few, for diagnosis
	Metrics   map[string]value `json:"metrics"`
}

// env is the state of one workload process.
type env struct {
	seed    int64
	window  time.Duration // total length of the timed phases
	smoke   bool
	clients int
	dir     string // scratch directory for store files, removed on exit
	ctx     context.Context

	d  *daemon
	cl *auditd.Client

	mu  sync.Mutex
	res result

	spans *spanLog // non-nil on a traced run
}

func newEnv(name string, seed int64, window time.Duration, traced, smoke bool, scratch string) (*env, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{
		seed: seed, window: window, smoke: smoke,
		clients: clientCount(), dir: dir, ctx: context.Background(),
	}
	e.res = result{Workload: name, Seed: seed, Clients: e.clients, WindowS: window.Seconds(), Metrics: map[string]value{}}
	if traced {
		e.spans = &spanLog{}
	}
	return e, nil
}

// clientCount is the load generator's concurrency: two client goroutines —
// two requests in flight at most — and one on a single-CPU host, so the
// generator never needs more cores than the host has beside the daemon.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// close stops the daemon and removes the scratch directory.
func (e *env) close() {
	if e.d != nil {
		e.d.stop()
		e.d = nil
	}
	os.RemoveAll(e.dir)
	// Drop the shared scratch root too when this was its last user.
	os.Remove(filepath.Dir(e.dir))
}

// boot starts (or restarts) the workload's daemon and a client for it.
func (e *env) boot(durable bool) error {
	dir := ""
	if durable {
		dir = filepath.Join(e.dir, "store")
	}
	d, err := bootDaemon(dir)
	if err != nil {
		return err
	}
	e.d, e.cl = d, d.client()
	return nil
}

// set records a metric that spec.go lists; its unit comes from there.
func (e *env) set(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	e.mu.Lock()
	e.res.Metrics[name] = value{Value: v, Unit: unit, Samples: samples}
	e.mu.Unlock()
}

// fail counts one failed operation or check.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	e.res.Failed++
	if len(e.res.Failures) < 8 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// check counts one attempted correctness check and fails it when err != nil.
func (e *env) check(what string, err error) {
	e.mu.Lock()
	e.res.Attempted++
	e.mu.Unlock()
	if err != nil {
		e.fail("%s: %v", what, err)
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	lats      []time.Duration // successful operations only, in completion order
	ends      []time.Duration // each one's completion, as an offset from the phase start
	attempted int
	elapsed   time.Duration
}

// perSecond is the phase's throughput in successful operations per second
// (see slicedRate).
func (p phase) perSecond() float64 { return slicedRate(p.ends, p.elapsed) }

// done records one successful operation.
func (p *phase) done(lat time.Duration, start time.Time) {
	p.lats = append(p.lats, lat)
	p.ends = append(p.ends, time.Since(start))
}

// closedLoop runs op from clients goroutines, each sending its next
// operation only after the previous one completed, until the duration has
// passed (limit <= 0) or limit operations were started. Operation indices
// come from one shared counter, so the operation sequence is a function of
// the seed alone. op times the part of itself a user waits for and returns
// it; an operation that returns an error is counted as failed and
// contributes no latency.
func (e *env) closedLoop(clients int, d time.Duration, limit int, op func(i int) (time.Duration, error)) phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ph   phase
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit <= 0 && time.Since(start) >= d {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				lat, err := op(i)
				mu.Lock()
				ph.attempted++
				if err == nil {
					ph.done(lat, start)
				}
				mu.Unlock()
				if err != nil {
					e.fail("op %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	e.mu.Lock()
	e.res.Attempted += ph.attempted
	e.mu.Unlock()
	return ph
}

// provenance is which path must have answered an audit submit.
type provenance int

const (
	cold     provenance = iota // computed: not cached, not coalesced, not a delta hit
	fromMem                    // cached, not disk_hit
	fromDisk                   // cached and disk_hit
)

func (p provenance) verify(st auditd.JobStatus) error {
	var ok bool
	switch p {
	case cold:
		ok = !st.Cached && !st.DiskHit && !st.Coalesced && !st.DeltaHit
	case fromMem:
		ok = st.Cached && !st.DiskHit
	case fromDisk:
		ok = st.Cached && st.DiskHit
	}
	if !ok {
		return fmt.Errorf("job %s: wrong provenance for phase (cached=%v disk_hit=%v coalesced=%v delta_hit=%v)",
			st.ID, st.Cached, st.DiskHit, st.Coalesced, st.DeltaHit)
	}
	return nil
}

// audit is one audit operation as a user waits for it: submit, wait for the
// terminal state, fetch and decode the report.
func audit(ctx context.Context, cl *auditd.Client, req *auditd.SubmitRequest, want provenance) (*report.Report, error) {
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := want.verify(st); err != nil {
		return nil, err
	}
	if st, err = cl.WaitDone(ctx, st.ID); err != nil {
		return nil, err
	}
	if st.State != auditd.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	rep, err := cl.Report(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if len(rep.Audits) == 0 {
		return nil, fmt.Errorf("job %s: empty report", st.ID)
	}
	return rep, nil
}

// canonical renders a report with its wall-clock fields zeroed, so two
// runs of the same audit compare byte for byte.
func canonical(rep *report.Report) []byte {
	c := report.Report{Title: rep.Title, Audits: append([]report.DeploymentAudit(nil), rep.Audits...)}
	for i := range c.Audits {
		c.Audits[i].Elapsed = 0
	}
	blob, err := json.Marshal(&c)
	if err != nil {
		panic(err) // reports hold only plain data; see report/json.go
	}
	return blob
}

// digest hashes a report's content (clock fields excluded) without going
// through the JSON codec, so the per-operation identity check inside timed
// loops is cheap and does not execute the code a codec change would touch.
func digest(rep *report.Report) [sha256.Size]byte {
	h := sha256.New()
	var num [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		io.WriteString(h, s)
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	f64 := func(v float64) {
		if math.IsNaN(v) {
			v = math.Inf(-1) // every NaN payload means "unknown"
		}
		u64(math.Float64bits(v))
	}
	str(rep.Title)
	for i := range rep.Audits {
		a := &rep.Audits[i]
		str(a.Deployment)
		str(a.Algorithm)
		u64(uint64(len(a.Sources)))
		for _, s := range a.Sources {
			str(s)
		}
		u64(uint64(a.Expected))
		u64(uint64(a.Unexpected))
		u64(uint64(a.ScoreTopN))
		f64(a.Score)
		f64(a.FailureProb)
		u64(uint64(len(a.RGs)))
		for _, rg := range a.RGs {
			u64(uint64(rg.Size))
			f64(rg.Prob)
			f64(rg.Importance)
			for _, c := range rg.Components {
				str(c)
			}
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// reportLatencies turns a phase into the op (or op2) latency metrics. The
// percentiles are sliced (see slicedPercentile) and reported only with
// minBeyond samples beyond them; a full run whose window was too short for
// that is an error, a smoke or traced run omits the metric.
func (e *env) reportLatencies(prefix string, ph phase) error {
	s := ms(ph.lats)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.50}, {"p90", 0.90}} {
		v, ok := slicedPercentile(s, q.p)
		if !ok {
			if e.smoke || e.spans != nil {
				continue
			}
			return fmt.Errorf("%s_%s_ms: only %d samples; the window is too short for this host", prefix, q.name, len(s))
		}
		e.set(prefix+"_"+q.name+"_ms", v, len(s))
	}
	return nil
}

// counts are the Server.Stats() deltas that prove which tier answered a
// phase's submits.
type counts struct{ computations, memoryHits, diskHits int64 }

func countsBetween(a, b auditd.Stats) counts {
	return counts{
		computations: b.Computations - a.Computations,
		memoryHits:   b.CacheHits - a.CacheHits,
		diskHits:     b.StoreHits - a.StoreHits,
	}
}

// wantCounts fails unless the daemon's counters moved by exactly want
// between the two snapshots.
func wantCounts(a, b auditd.Stats, want counts) error {
	if got := countsBetween(a, b); got != want {
		return fmt.Errorf("daemon counted %+v, the phase requires %+v", got, want)
	}
	return nil
}

// setProvenance reports a phase's tier counts as per-layer metrics.
func (e *env) setProvenance(a, b auditd.Stats, ops int) {
	c := countsBetween(a, b)
	if ops > 0 {
		e.set("auditd.computations_per_op", float64(c.computations)/float64(ops), ops)
	}
	e.set("auditd.memory_hits", float64(c.memoryHits), 0)
	e.set("auditd.disk_hits", float64(c.diskHits), 0)
	e.set("auditd.coalesced", float64(b.Coalesced-a.Coalesced), 0)
	e.set("auditd.rejected", float64(b.Rejected-a.Rejected), 0)
}
