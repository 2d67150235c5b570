package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"indaas/internal/agentsim"
	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/sia"
	"indaas/internal/store"
	"indaas/internal/watch"
)

const (
	churnBatch = 64 // records per paced ingest push
	// The saturation phase pushes a fixed amount of data in larger pushes:
	// with 64-record pushes the phase measures the host's fsync rate (which
	// swings ±25% over seconds on a shared disk) rather than the daemon, and
	// a fixed record count keeps the database — and so peak RSS — the same
	// size on every run and on both sides of a comparison.
	satBatch   = 256
	satBatches = 800
	churnRate  = 5000                 // records/second of the paced phase: about a tenth of saturation
	probeEvery = 3                    // a watch probe follows every third paced push
	lateLimit  = 2 * time.Millisecond // a paced generator later than this at p99 invalidates the phase
)

// churnWatch is the write side of the service beside its reads: a durable
// daemon absorbs the fleet's dependency churn in 64-record pushes while a
// watch over two two-server deployments, on four servers churn never
// touches, is re-audited on every probe flap. Phase "paced" pushes on an
// open-loop 5,000 rec/s schedule (op: push acknowledged, timed from its due
// time) and, between pushes, probes flap → re-audited report event decoded
// (op2); phase "saturate" is one closed-loop pusher, no probe (ops_per_s:
// pushes acknowledged per second). One pusher, not two: two closed loops
// over a single group committer make the run bimodal.
type churnWatch struct {
	fleet    *agentsim.Fleet
	stream   *agentsim.Churn
	probeOn  []string // the four watched servers
	watchReq *auditd.SubmitRequest
	w        *auditd.Watcher

	// One goroutine drives the whole workload, so none of this is locked.
	mirror *depdb.DB          // harness-side database fed every record the daemon is fed, in order
	last   *auditd.WatchEvent // the most recent watch event
}

func (c *churnWatch) setup(e *env) error {
	fleet, _, recs, err := fleetInputs(8, e.seed, 0)
	if err != nil {
		return err
	}
	c.fleet = fleet
	c.probeOn = fleet.Servers()[:4]
	if c.stream, err = fleet.ChurnStream(e.seed, c.probeOn...); err != nil {
		return err
	}
	if err := e.boot(true); err != nil {
		return err
	}
	if _, err := e.cl.Ingest(e.ctx, auditd.WireRecords(recs)); err != nil {
		return fmt.Errorf("bootstrap ingest: %w", err)
	}
	c.mirror = depdb.New()
	if err := c.mirror.Put(recs...); err != nil {
		return err
	}
	c.watchReq = &auditd.SubmitRequest{
		Title: "bench watch",
		Deployments: []auditd.DeploymentWire{
			{Name: "primary", Servers: c.probeOn[:2]},
			{Name: "secondary", Servers: c.probeOn[2:]},
		},
	}
	if c.w, err = e.cl.Watch(e.ctx, c.watchReq); err != nil {
		return fmt.Errorf("watch subscribe: %w", err)
	}
	if _, err := c.nextEvent(""); err != nil {
		return fmt.Errorf("initial watch report: %w", err)
	}
	// Priming: a few probes and pushes through every path the phases use.
	for i := 0; i < 32; i++ {
		if _, err := c.probe(e); err != nil {
			return fmt.Errorf("warm-up probe: %w", err)
		}
	}
	for i := 0; i < 128; i++ {
		if _, _, err := c.push(e); err != nil {
			return fmt.Errorf("warm-up push: %w", err)
		}
	}
	return nil
}

// batch draws churn events until churnBatch records are gathered, feeds the
// mirror and returns the wire form.
func (c *churnWatch) batch() ([]auditd.RecordWire, error) { return c.batchOf(churnBatch) }

func (c *churnWatch) batchOf(size int) ([]auditd.RecordWire, error) {
	recs, err := c.draw(size)
	if err == nil {
		err = c.mirror.Put(recs...)
	}
	return auditd.WireRecords(recs), err
}

// draw takes churn events off the stream until size records are gathered.
func (c *churnWatch) draw(size int) ([]deps.Record, error) {
	var recs []deps.Record
	for len(recs) < size {
		b, err := c.stream.Next()
		if err != nil {
			return nil, err
		}
		recs = append(recs, b.Records...)
	}
	return recs, nil
}

// push sends one batch and returns when it was sent and how many records
// it carried.
func (c *churnWatch) push(e *env) (sent time.Time, n int, err error) {
	wire, err := c.batch()
	if err != nil {
		return sent, 0, err
	}
	sent = time.Now()
	_, err = e.cl.Ingest(e.ctx, wire)
	return sent, len(wire), err
}

// nextEvent reads watch events until one whose report names the component
// label (any event when label is empty), failing on a re-audit error.
func (c *churnWatch) nextEvent(label string) (*auditd.WatchEvent, error) {
	for tries := 0; tries < 4; tries++ {
		ev, err := c.w.Next()
		if err != nil {
			return nil, err
		}
		c.last = ev
		if ev.Error != "" || ev.Report == nil {
			return nil, fmt.Errorf("watch event %d: re-audit failed: %s", ev.Seq, ev.Error)
		}
		if label == "" {
			return ev, nil
		}
		for i := range ev.Report.Audits {
			for _, rg := range ev.Report.Audits[i].RGs {
				for _, comp := range rg.Components {
					if comp == label {
						return ev, nil
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("no watch event carried the flapped component %q", label)
}

// probe flaps a watched NIC and waits for the re-audited report that
// carries the new component: ingest sent → matching event decoded.
func (c *churnWatch) probe(e *env) (time.Duration, error) {
	rec := c.fleet.Node(c.probeOn[0]).FlapNIC()
	if err := c.mirror.Put(rec); err != nil {
		return 0, err
	}
	wire := auditd.WireRecords([]deps.Record{rec})
	t0 := time.Now()
	if _, err := e.cl.Ingest(e.ctx, wire); err != nil {
		return 0, err
	}
	if _, err := c.nextEvent(rec.Hardware.Dep); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (c *churnWatch) run(e *env) error {
	pacedDur := e.window * 7 / 10
	s0 := e.d.svc.Stats()

	// Phase "paced": one client alternates between the open-loop pusher's
	// schedule and the probe. After every probeEvery-th push it flaps the
	// watched NIC and waits for the event, in the idle time before the next
	// batch is due; a probe that overruns delays that batch, which its
	// latency, timed from the due time, then shows. The two were separate
	// goroutines at first: on two CPUs shared with the daemon that made
	// every statistic of the phase bimodal from run to run.
	var (
		pushes, probes phase
		late           []time.Duration
		records        int
	)
	start := time.Now()
	pc := newPacer(wallClock{}, churnRate)
	for time.Since(start) < pacedDur {
		wire, err := c.batch()
		if err != nil {
			return fmt.Errorf("churn generator: %w", err)
		}
		due, l := pc.next(len(wire))
		late = append(late, l)
		_, err = e.cl.Ingest(e.ctx, wire)
		pushes.attempted++
		if err != nil {
			e.fail("paced push: %v", err)
			continue
		}
		pushes.done(time.Since(due), start)
		records += len(wire)
		if pushes.attempted%probeEvery == 0 {
			lat, err := c.probe(e)
			probes.attempted++
			if err != nil {
				e.fail("probe: %v", err)
				continue
			}
			probes.done(lat, start)
		}
	}
	pushes.elapsed = time.Since(start)
	s1 := e.d.svc.Stats()
	e.mu.Lock()
	e.res.Attempted += pushes.attempted + probes.attempted
	e.mu.Unlock()
	if err := e.reportLatencies("op", pushes); err != nil {
		return err
	}
	if err := e.reportLatencies("op2", probes); err != nil {
		return err
	}
	// How late the generator itself released batches. The p99 is reported
	// (about 0.3 ms here; short windows cannot carry a p99, and the maximum,
	// never smaller, stands in). The phase is invalid, not slow, when the
	// generator's median lateness exceeds lateLimit: the gated statistic of
	// this phase is a median, and a rule on the p99 would fail one run in
	// forty on a host hiccup that moves no reported number.
	lateMS := ms(late)
	sort.Float64s(lateMS)
	lateP50, _ := percentile(lateMS, 0.50)
	lateP99, ok := percentile(lateMS, 0.99)
	if !ok && len(lateMS) > 0 {
		lateP99 = lateMS[len(lateMS)-1]
	}
	e.set("agentsim.late_p99_ms", lateP99, len(lateMS))
	e.set("agentsim.batches", float64(pushes.attempted), 0)
	e.set("agentsim.records", float64(records), 0)
	var lateErr error
	if limit := float64(lateLimit) / float64(time.Millisecond); lateP50 > limit {
		lateErr = fmt.Errorf("released batches %.2f ms late at the median (limit %.1f ms); the paced phase is invalid", lateP50, limit)
	}
	e.check("paced generator on time", lateErr)

	// Phase "saturate": closed-loop pushers, no probe.
	p1 := sampleProc()
	satRecords := 0
	sat := e.closedLoop(1, 0, satBatches, func(int) (time.Duration, error) {
		wire, err := c.batchOf(satBatch)
		if err != nil {
			return 0, err
		}
		sent, n := time.Now(), len(wire)
		if _, err := e.cl.Ingest(e.ctx, wire); err != nil {
			return 0, err
		}
		satRecords += n
		return time.Since(sent), nil
	})
	s2, p2 := e.d.svc.Stats(), sampleProc()
	e.set("ops_per_s", sat.perSecond(), len(sat.lats))
	e.set("auditd.ingest_records_per_s", float64(satRecords)/sat.elapsed.Seconds(), satRecords)
	e.set("peak_rss_mb", peakRSSMB(), 0)
	c.layerCounts(e, s0, s1, s2, probes)
	e.setProcess(p1, p2, len(sat.lats))

	c.oracle(e)
	return nil
}

// layerCounts reports the ingest → watch pipeline's own counters.
func (c *churnWatch) layerCounts(e *env, s0, s1, s2 auditd.Stats, probes phase) {
	usOf := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	e.set("auditd.ingest_commit_p50_ms", msOf(s2.IngestCommit.Quantile(0.5)), int(s2.IngestCommit.Count()))
	if g := s2.IngestGroups - s1.IngestGroups; g > 0 {
		e.set("auditd.records_per_commit_group", float64(s2.IngestedRecords-s1.IngestedRecords)/float64(g), int(g))
	}
	e.set("store.put_us", usOf(s2.Store.PutLatency.Quantile(0.5)), int(s2.Store.PutLatency.Count()))
	if n := s2.IngestedRecords - s1.IngestedRecords; n > 0 {
		e.set("store.bytes_per_record", float64(s2.Store.FileBytes-s1.Store.FileBytes)/float64(n), int(n))
	}
	notify := msOf(s1.IngestNotify.Quantile(0.5))
	e.set("auditd.ingest_notify_p50_ms", notify, int(s1.IngestNotify.Count()))
	if p50, ok := slicedPercentile(ms(probes.lats), 0.5); ok {
		e.set("auditd.sse_delivery_ms", p50-notify, len(probes.lats))
	}
	if re := s1.WatchReaudits - s0.WatchReaudits; re > 0 {
		inc := (s1.DeltaHits - s0.DeltaHits) + (s1.DeltaPartials - s0.DeltaPartials)
		e.set("auditd.incremental_share", float64(inc)/float64(re), int(re))
	}
	e.set("watch.events_dropped", float64(s2.WatchDropped), 0)
	e.setProvenance(s0, s2, probes.attempted)
}

// oracle checks, outside the timed phases, that the daemon holds exactly
// the records it was sent (its fingerprint equals the mirror's) and that
// the last watch event equals a direct audit of the final database.
func (c *churnWatch) oracle(e *env) {
	// One last flap: its acknowledgement carries the final fingerprint and
	// its event is the watch's last word.
	_, err := c.probe(e)
	e.check("final probe", err)
	if err != nil {
		return
	}
	snap := c.mirror.Snapshot()
	err = nil
	if got := c.last.Fingerprint; got != snap.Fingerprint() {
		err = fmt.Errorf("daemon %s, mirror %s", got, snap.Fingerprint())
	}
	e.check("daemon fingerprint equals the mirror's", err)
	want, err := sia.AuditDeployments(snap, c.watchReq.Title, c.specs(), sia.Options{Algorithm: sia.MinimalRG})
	if err == nil && !bytes.Equal(canonical(c.last.Report), canonical(want)) {
		err = fmt.Errorf("last watch report differs from a direct audit of the final database")
	}
	e.check("last watch event equals a direct audit", err)
}

// specs are the watched deployments as the daemon's audit sees them.
func (c *churnWatch) specs() []sia.GraphSpec {
	var specs []sia.GraphSpec
	for _, d := range c.watchReq.Deployments {
		specs = append(specs, sia.GraphSpec{Deployment: d.Name, Servers: d.Servers})
	}
	return specs
}

func (c *churnWatch) close() {
	if c.w != nil {
		c.w.Close()
	}
}

// ladder replays ingest pushes one layer further in at each rung: client →
// handler → Server.Ingest → the database and store calls a commit makes.
func (c *churnWatch) ladder(e *env) error {
	st, err := store.Open(store.Options{Dir: filepath.Join(e.dir, "ladder-store")})
	if err != nil {
		return err
	}
	defer st.Close()
	local := depdb.New()
	rungs := []rung{
		{"r0_client", func(int) ([]call, error) {
			wire, err := c.batch()
			if err != nil {
				return nil, err
			}
			var calls []call
			return calls, timed(&calls, "client.ingest", func() error { _, err := e.cl.Ingest(e.ctx, wire); return err })
		}},
		{"r1_handler", func(int) ([]call, error) {
			wire, err := c.batch()
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(&auditd.IngestRequest{Records: wire})
			if err != nil {
				return nil, err
			}
			var calls []call
			return calls, timed(&calls, "handler.ingest", func() error {
				if code, blob := e.d.serve(http.MethodPost, "/v1/depdb", body); code >= 400 {
					return fmt.Errorf("POST /v1/depdb: HTTP %d: %s", code, blob)
				}
				return nil
			})
		}},
		{"r2_server", func(int) ([]call, error) {
			wire, err := c.batch()
			if err != nil {
				return nil, err
			}
			var calls []call
			return calls, timed(&calls, "server.ingest", func() error {
				_, err := e.d.svc.Ingest(&auditd.IngestRequest{Records: wire})
				return err
			})
		}},
		// R3 and its parts in one rung: the calls a commit group makes,
		// against a harness-side database and store (fsync on).
		{"r3_engine", func(i int) ([]call, error) {
			recs, err := c.draw(churnBatch) // fed to neither the daemon nor the mirror
			if err != nil {
				return nil, err
			}
			var calls []call
			err = timed(&calls, "store.put", func() error {
				var buf bytes.Buffer
				if err := deps.EncodeXML(&buf, recs); err != nil {
					return err
				}
				if _, err := st.Put(fmt.Sprintf("seg/%d", i), store.KindSnapshot, buf.Bytes()); err != nil {
					return err
				}
				_, err := st.Put("current", store.KindMeta, []byte(fmt.Sprintf(`{"segments":%d}`, i+1)))
				return err
			})
			if err != nil {
				return calls, err
			}
			timed(&calls, "depdb.put", func() error { return local.Put(recs...) })
			timed(&calls, "depdb.snapshot", func() error { local.Snapshot(); return nil })
			return calls, nil
		}},
	}
	plain, medians, parts := e.ladder(rungs, func(int) (time.Duration, error) {
		sent, _, err := c.push(e)
		return time.Since(sent), err
	})
	e.reportLadder(medians, parts, []string{"store.put", "depdb.put", "depdb.snapshot"}, plain)
	e.set("auditd.ingest_us", medians[2]*1000, e.ladderOps())
	e.set("depdb.put_us", parts["depdb.put"]*1000, e.ladderOps())
	e.set("depdb.snapshot_us", parts["depdb.snapshot"]*1000, e.ladderOps())
	c.pipelineProbes(e)
	return nil
}

// pipelineProbes times, by direct calls, the three steps between a commit
// and a watch refresh: Snapshot.Diff across one batch, the dirty-deployment
// analysis of that diff, and the hub's Notify fan-in.
func (c *churnWatch) pipelineProbes(e *env) {
	specs := c.specs()
	hub := watch.NewHub()
	defer hub.Close()
	if _, err := hub.Subscribe(watch.Interest{Subjects: c.probeOn}, 16); err != nil {
		e.check("probe hub subscribe", err)
		return
	}
	var diffUS, dirtyUS, notifyUS []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	for i := 0; i < e.ladderOps()*4; i++ {
		before := c.mirror.Snapshot()
		if _, err := c.batch(); err != nil { // advances the mirror by one batch
			e.check("probe batch", err)
			return
		}
		after := c.mirror.Snapshot()
		t0 := time.Now()
		d := before.Diff(after)
		diffUS = append(diffUS, us(t0))
		t0 = time.Now()
		sia.DirtyDeployments(specs, d)
		dirtyUS = append(dirtyUS, us(t0))
		touched := d.Touched()
		touches := make([]watch.Touch, len(touched))
		for j, r := range touched {
			touches[j] = watch.Touch{Subject: r.Subject(), Kind: int(r.Kind)}
		}
		t0 = time.Now()
		hub.Notify(touches)
		notifyUS = append(notifyUS, us(t0))
	}
	e.set("depdb.diff_us", median(diffUS), len(diffUS))
	e.set("sia.dirty_deployments_us", median(dirtyUS), len(dirtyUS))
	e.set("watch.notify_us", median(notifyUS), len(notifyUS))
}
