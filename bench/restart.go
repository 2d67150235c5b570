package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"indaas/internal/auditd"
)

// restartRead is the repeat reader's workload: no computation at all. A
// durable daemon is filled with restartKeys distinct audits of the
// three-kind fleet — twice what the memory tier holds — and restarted.
// Phase "sweep" (op2) then reads every key once, in order, so every submit
// is answered by the disk tier; phase "hot" (op) re-reads the restartHot
// most recently swept keys, a working set the memory tier holds.
type restartRead struct {
	ps     pods
	hashes [][sha256.Size]byte // report digest per key, recorded before the restart
}

const (
	restartKeys = 1024
	restartHot  = 256
)

func (r *restartRead) request(seed int64, i int) *auditd.SubmitRequest {
	a, b := r.ps.pair(seed, i)
	return deployment("restart", seed, i, a, b)
}

func (r *restartRead) setup(e *env) error {
	_, ps, recs, err := fleetInputs(8, e.seed, 0)
	if err != nil {
		return err
	}
	r.ps = ps
	if err := e.boot(true); err != nil {
		return err
	}
	if _, err := e.cl.Ingest(e.ctx, auditd.WireRecords(recs)); err != nil {
		return fmt.Errorf("bootstrap ingest: %w", err)
	}
	r.hashes = make([][sha256.Size]byte, restartKeys)
	// The fill submits and waits through the client like any user, but reads
	// each report for its digest straight from the server: decoding 1,024
	// reports over HTTP would double set-up time to no purpose.
	fill := e.closedLoop(e.clients, 0, restartKeys, func(i int) (time.Duration, error) {
		st, err := e.cl.Submit(e.ctx, r.request(e.seed, i))
		if err == nil {
			err = cold.verify(st)
		}
		if err == nil {
			st, err = e.cl.WaitDone(e.ctx, st.ID)
		}
		if err != nil {
			return 0, err
		}
		rep, err := e.d.svc.Report(st.ID)
		if err != nil {
			return 0, err
		}
		r.hashes[i] = digest(rep)
		return 0, nil
	})
	if len(fill.lats) != restartKeys {
		return fmt.Errorf("fill: %d of %d audits failed", restartKeys-len(fill.lats), restartKeys)
	}
	st := e.d.svc.Stats().Store
	e.set("store.bytes_per_result", float64(st.ResultBytes)/restartKeys, restartKeys)
	e.set("store.put_us", float64(st.PutLatency.Quantile(0.5))/float64(time.Microsecond), int(st.PutLatency.Count()))
	// Restart: everything acknowledged must come back from the store.
	e.d.stop()
	e.d = nil
	if err := e.boot(true); err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	e.set("store.recover_ms", e.d.recoverMS, 1)
	return nil
}

// read is one repeat read of key i, checked against the pre-restart hash.
func (r *restartRead) read(e *env, i int, want provenance) (time.Duration, error) {
	req := r.request(e.seed, i)
	t0 := time.Now()
	rep, err := audit(e.ctx, e.cl, req, want)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if digest(rep) != r.hashes[i] {
		return 0, fmt.Errorf("key %d: report differs from the one computed before the restart", i)
	}
	return lat, nil
}

func (r *restartRead) run(e *env) error {
	start := time.Now()
	s0 := e.d.svc.Stats()
	sweep := e.closedLoop(e.clients, 0, restartKeys, func(i int) (time.Duration, error) {
		return r.read(e, i, fromDisk)
	})
	s1, p1 := e.d.svc.Stats(), sampleProc()
	if err := e.reportLatencies("op2", sweep); err != nil {
		return err
	}
	e.check("every sweep submit was a disk hit",
		wantCounts(s0, s1, counts{diskHits: restartKeys}))
	e.set("store.get_us", float64(s1.Store.GetLatency.Quantile(0.5))/float64(time.Microsecond), int(s1.Store.GetLatency.Count()))

	// The hot phase takes what is left of the window, and at least half.
	hotDur := e.window - time.Since(start)
	if hotDur < e.window/2 {
		hotDur = e.window / 2
	}
	hot := e.closedLoop(e.clients, hotDur, 0, func(j int) (time.Duration, error) {
		i := restartKeys - restartHot + int(mix(e.seed^0x686f74, uint64(j))%restartHot)
		return r.read(e, i, fromMem)
	})
	s2, p2 := e.d.svc.Stats(), sampleProc()
	if err := e.reportLatencies("op", hot); err != nil {
		return err
	}
	e.set("ops_per_s", hot.perSecond(), len(hot.lats))
	e.check("every hot submit was a memory hit",
		wantCounts(s1, s2, counts{memoryHits: int64(hot.attempted)}))
	e.set("peak_rss_mb", peakRSSMB(), 0)
	e.setProvenance(s1, s2, hot.attempted)
	e.set("auditd.disk_hits", float64(countsBetween(s0, s1).diskHits), 0) // the sweep's, not the hot phase's
	e.setProcess(p1, p2, len(hot.lats))
	return nil
}

// ladder replays hot reads one layer further in at each rung; the
// operation never reaches the audit engine, so the ladder ends at the
// server and the report codec parts.
func (r *restartRead) ladder(e *env) error {
	hot := func(_ string, i int) *auditd.SubmitRequest {
		return r.request(e.seed, restartKeys-restartHot+i%restartHot)
	}
	e.runAuditLadder(e.auditLadder(hot, fromMem, nil, nil), func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := audit(e.ctx, e.cl, hot("", i), fromMem)
		return time.Since(t0), err
	}, 0)
	e.hitProbe(hot("", 0))
	// The sweep pushed the first keys out of the memory tier again, so a
	// direct submit of each is answered by the disk tier.
	var evicted []*auditd.SubmitRequest
	for i := 0; i < e.ladderOps(); i++ {
		evicted = append(evicted, r.request(e.seed, i))
	}
	us, _ := e.submitProbe(evicted, fromDisk)
	e.set("auditd.submit_disk_hit_us", us, len(evicted))
	return nil
}

func (r *restartRead) close() {}
