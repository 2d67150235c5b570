package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/ranking"
	"indaas/internal/report"
	"indaas/internal/riskgroup"
	"indaas/internal/sia"
)

// ladderOps is how many operations each rung of the ladder replays; a
// smoke run replays a handful.
const ladderOps = 24

func (e *env) ladderOps() int {
	if e.smoke {
		return 4
	}
	return ladderOps
}

// span is one timed call at a layer boundary. Spans of one replayed
// operation share Op; Parent is the span that caused this one, or for a
// rung's root span the same operation's root span one rung above (0 at R0).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(parent, op int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = start
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds()})
	return id
}

// medianMS is the median duration, in milliseconds, of the spans with the
// given name (0 when there are none).
func (l *spanLog) medianMS(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d []float64
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return median(d)
}

// write dumps the spans as JSON.
func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// call is a sub-span a rung reports for one operation: a named interval
// and, optionally, spans nested inside it.
type call struct {
	name       string
	start, end time.Time
	children   []call
}

// timed runs fn and appends it to calls as a named interval.
func timed(calls *[]call, name string, fn func() error) error {
	c := call{name: name, start: time.Now()}
	err := fn()
	c.end = time.Now()
	*calls = append(*calls, c)
	return err
}

// rung is one level of the ladder: the same operation performed one layer
// further in. op performs operation i and returns the calls it made; the
// rung's duration runs from the first call's start to the last call's end,
// so preparing inputs (generating a batch, pre-encoding a body) is not
// charged to it.
type rung struct {
	name string
	op   func(i int) ([]call, error)
}

// ladder replays ladderOps operations from a single client. Each operation
// is performed once plainly (no spans: the untraced pass the overhead is
// measured against) and then once at every rung, outermost first, recording
// every call as a span. Rungs are interleaved per operation rather than run
// one after the other so that a drift in the host's speed over the replay —
// common on a shared machine — moves all rungs alike instead of passing for
// a layer's self time. The garbage collector is held off during the replay
// and run by hand between operations: with the daemon's job table holding
// hundreds of megabytes of reports, a collection cycle makes whichever call
// it lands on ~45% slower, so each rung's samples would be a two-mode
// mixture whose median flips with the share of calls a cycle happened to
// hit. The ladder therefore attributes time net of collection; what the
// collector costs a real run is in the timed phases and process.gc_pause_ms.
// It returns the untraced median, each rung's median in milliseconds and,
// for the named calls of the last rung (the parts), each part's median.
func (e *env) ladder(rungs []rung, plain func(i int) (time.Duration, error)) (untraced float64, medians []float64, parts map[string]float64) {
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var plainLats []float64
	lats := make([][]float64, len(rungs))
	partLats := map[string][]float64{}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < e.ladderOps(); i++ {
		runtime.GC()
		// The first call after a collection pays for it (swept spans, cold
		// caches): a millisecond that matters to a 2 ms ingest. A discarded
		// operation, under an index no measured one uses, absorbs that.
		if _, err := plain(i + ladderOps); err != nil {
			e.check("untraced single-client pass", err)
		}
		// The plain pass goes before the rungs on even operations and after
		// them on odd ones, so that neither side always runs closer to the
		// collection.
		runPlain := func() {
			d, err := plain(i)
			e.check("untraced single-client pass", err)
			if err == nil {
				plainLats = append(plainLats, msOf(d))
			}
		}
		if i%2 == 0 {
			runPlain()
		}
		parent := 0
		for r, rg := range rungs {
			calls, err := rg.op(i)
			e.check("ladder "+rg.name, err)
			if err != nil || len(calls) == 0 {
				break
			}
			t0, t1 := calls[0].start, calls[len(calls)-1].end
			lats[r] = append(lats[r], msOf(t1.Sub(t0)))
			parent = e.spans.add(parent, i, rg.name, t0, t1)
			e.addCalls(parent, i, calls)
			if r == len(rungs)-1 {
				for _, c := range calls {
					partLats[c.name] = append(partLats[c.name], msOf(c.end.Sub(c.start)))
				}
			}
		}
		if i%2 == 1 {
			runPlain()
		}
	}
	for _, l := range lats {
		medians = append(medians, median(l))
	}
	parts = map[string]float64{}
	for name, l := range partLats {
		parts[name] = median(l)
	}
	return median(plainLats), medians, parts
}

func (e *env) addCalls(parent, op int, calls []call) {
	for _, c := range calls {
		id := e.spans.add(parent, op, c.name, c.start, c.end)
		e.addCalls(id, op, c.children)
	}
}

// selfTimes turns rung medians into per-layer self times: each rung minus
// the rung below it, the innermost rung minus the parts measured inside it.
// Negative differences (rung noise) clip to zero. gapPct is how far the
// self times and parts are from summing to the outermost rung.
func selfTimes(rungs []float64, parts []float64) (self []float64, gapPct float64) {
	if len(rungs) == 0 {
		return nil, 0
	}
	var inner float64
	for _, p := range parts {
		inner += p
	}
	sum := inner
	for i, m := range rungs {
		below := inner
		if i+1 < len(rungs) {
			below = rungs[i+1]
		}
		s := math.Max(m-below, 0)
		self = append(self, s)
		sum += s
	}
	if rungs[0] > 0 {
		gapPct = math.Abs(sum-rungs[0]) / rungs[0] * 100
	}
	return self, gapPct
}

// reportLadder publishes the ladder's per-layer metrics. rungs holds the
// R0..R3 medians (R3 is 0 for operations that never reach the engine);
// engine lists the R4 part names that are pieces of R3.
func (e *env) reportLadder(rungs []float64, parts map[string]float64, engine []string, untracedR0 float64) {
	var enginePart []float64
	for _, name := range engine {
		enginePart = append(enginePart, parts[name])
	}
	self, gap := selfTimes(rungs, enginePart)
	for i, name := range []string{"ladder.r0_client_ms", "ladder.r1_handler_ms", "ladder.r2_server_ms", "ladder.r3_engine_ms"} {
		e.set(name, rungs[i], e.ladderOps())
	}
	for i, name := range []string{"auditd.client.self_ms", "auditd.http.self_ms", "auditd.self_ms", "sia.self_ms"} {
		e.set(name, self[i], e.ladderOps())
	}
	e.set("trace.ladder_gap_pct", gap, 0)
	overhead := 0.0
	if untracedR0 > 0 {
		overhead = (rungs[0] - untracedR0) / untracedR0 * 100
	}
	e.set("trace.overhead_pct", overhead, e.ladderOps())
	// Both are verdicts on the measurement, not on the program: reported,
	// and flagged when outside the 10% the attribution is trusted to.
	for what, pct := range map[string]float64{"traced R0 vs the untraced pass": overhead, "ladder self times vs R0": gap} {
		if math.Abs(pct) > 10 && !e.smoke {
			fmt.Fprintf(os.Stderr, "bench: warning: %s: %.1f%% apart; do not trust this run's self times\n", what, pct)
		}
	}
}

// auditLadder builds the four audit rungs plus the R4 parts for requests
// produced by req (a fresh content address per (rung, i) where the rung
// must compute). snap is the harness-side copy of the daemon's database;
// nil marks an operation that never reaches the engine (a cache read), for
// which R3 and the engine parts are skipped.
func (e *env) auditLadder(req func(rung string, i int) *auditd.SubmitRequest, want provenance,
	snap *depdb.Snapshot, specOf func(*auditd.SubmitRequest) ([]sia.GraphSpec, sia.Options)) []rung {
	ctx := e.ctx
	var last *report.Report // the most recent report any rung fetched, for the codec parts
	rungs := []rung{
		{"r0_client", func(i int) ([]call, error) {
			var calls []call
			var st auditd.JobStatus
			q := req("r0", i)
			err := timed(&calls, "client.submit", func() (err error) { st, err = e.cl.Submit(ctx, q); return })
			if err == nil {
				err = want.verify(st)
			}
			if err == nil {
				err = timed(&calls, "client.wait_done", func() (err error) { st, err = e.cl.WaitDone(ctx, st.ID); return })
			}
			if err == nil {
				err = timed(&calls, "client.report", func() (err error) { last, err = e.cl.Report(ctx, st.ID); return })
			}
			return calls, err
		}},
		{"r1_handler", func(i int) ([]call, error) {
			var calls []call
			body, err := json.Marshal(req("r1", i))
			if err != nil {
				return nil, err
			}
			var st auditd.JobStatus
			serve := func(name, method, path string, body []byte, out any) error {
				return timed(&calls, name, func() error {
					code, blob := e.d.serve(method, path, body)
					if code >= 400 {
						return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, blob)
					}
					if out == nil {
						return nil
					}
					return json.Unmarshal(blob, out)
				})
			}
			if err = serve("handler.submit", http.MethodPost, "/v1/audits", body, &st); err == nil {
				err = want.verify(st)
			}
			if err == nil {
				err = serve("handler.status", http.MethodGet, "/v1/audits/"+st.ID+"?wait=10s", nil, &st)
			}
			if err == nil && st.State != auditd.StateDone {
				err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			if err == nil {
				// The report body is produced but left undecoded: decoding is
				// the client's work, which this rung excludes.
				err = serve("handler.report", http.MethodGet, "/v1/audits/"+st.ID+"/report", nil, nil)
			}
			return calls, err
		}},
		{"r2_server", func(i int) ([]call, error) {
			var calls []call
			var st auditd.JobStatus
			q := req("r2", i)
			err := timed(&calls, "server.submit", func() (err error) { st, err = e.d.svc.Submit(q); return })
			if err == nil {
				err = want.verify(st)
			}
			if err == nil {
				err = timed(&calls, "server.wait_done", func() (err error) {
					st, err = e.d.svc.WaitDone(ctx, st.ID, time.Minute)
					return
				})
				// The daemon's own phase trace nests under the wait.
				w := &calls[len(calls)-1]
				for _, p := range st.Trace {
					begin := calls[0].start.Add(time.Duration(p.StartNS))
					w.children = append(w.children, call{name: "auditd." + p.Name, start: begin, end: begin.Add(time.Duration(p.DurationNS))})
				}
			}
			if err == nil && st.State != auditd.StateDone {
				err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			if err == nil {
				err = timed(&calls, "server.report", func() (err error) { last, err = e.d.svc.Report(st.ID); return })
			}
			return calls, err
		}},
	}
	if snap != nil {
		rungs = append(rungs, rung{"r3_engine", func(i int) ([]call, error) {
			q := req("r3", i)
			specs, opts := specOf(q)
			var calls []call
			return calls, timed(&calls, "sia.audit_deployments", func() error {
				_, err := sia.AuditDeploymentsContext(ctx, snap, q.Title, specs, opts)
				return err
			})
		}})
	}
	// R4: the parts, each called on its own.
	rungs = append(rungs, rung{"r4_parts", func(i int) ([]call, error) {
		var calls []call
		if snap != nil {
			q := req("r4", i)
			specs, opts := specOf(q)
			g, err := sia.BuildGraph(snap, specs[0])
			if err != nil {
				return nil, err
			}
			// Build again under the timer: the first build warmed the data.
			timed(&calls, "sia.build_graph", func() error { _, err := sia.BuildGraph(snap, specs[0]); return err })
			var fam []riskgroup.RG
			if opts.Algorithm == sia.FailureSampling {
				err = timed(&calls, "riskgroup.sampling", func() (err error) {
					fam, err = riskgroup.Sampler{Rounds: opts.Rounds, Shrink: true, Seed: opts.Seed, Workers: opts.Workers}.SampleContext(ctx, g)
					return
				})
			} else {
				err = timed(&calls, "riskgroup.minimal_rgs", func() (err error) {
					fam, err = riskgroup.MinimalRGsContext(ctx, g, riskgroup.MinimalOptions{})
					return
				})
			}
			if err != nil {
				return calls, err
			}
			timed(&calls, "ranking.rank", func() error { ranking.BySize(g, fam); return nil })
			if i == 0 {
				e.set("riskgroup.rgs_found", float64(len(fam)), 1)
				e.set("faultgraph.nodes", float64(g.Len()), 1)
				e.set("faultgraph.basic_events", float64(g.NumBasics()), 1)
				e.flipProbe(g)
			}
		}
		if last == nil {
			return calls, fmt.Errorf("no report reached the codec parts")
		}
		var blob []byte
		err := timed(&calls, "report.encode", func() (err error) { blob, err = json.Marshal(last); return })
		if err != nil {
			return calls, err
		}
		if i == 0 {
			e.set("report.bytes", float64(len(blob)), 1)
		}
		err = timed(&calls, "report.decode", func() error { return json.Unmarshal(blob, new(report.Report)) })
		return calls, err
	}})
	return rungs
}

// runAuditLadder runs the audit ladder and publishes its metrics. untraced
// performs one plain end-to-end operation (no spans) for the overhead pass.
func (e *env) runAuditLadder(rungs []rung, untraced func(i int) (time.Duration, error), rounds int) {
	plain, medians, parts := e.ladder(rungs, untraced)
	r := make([]float64, 4)
	copy(r, medians[:len(medians)-1]) // the last rung is the parts, not a level
	e.reportLadder(r, parts, []string{"sia.build_graph", "riskgroup.minimal_rgs", "riskgroup.sampling", "ranking.rank"}, plain)
	e.set("sia.audit_ms", r[3], e.ladderOps())
	e.set("auditd.queue_wait_ms", e.spans.medianMS("auditd.queue-wait"), e.ladderOps())
	for part, v := range parts {
		e.set(part+"_ms", v, e.ladderOps()) // every audit part is a metric of that name
	}
	if v := parts["riskgroup.sampling"]; v > 0 {
		e.set("riskgroup.rounds_per_s", float64(rounds)/(v/1000), e.ladderOps())
	}
}
