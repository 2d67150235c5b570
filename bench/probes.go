package main

import (
	"runtime"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/faultgraph"
)

// flipProbe times faultgraph.Evaluator.SetBasic, the sampling kernel's
// inner step: failing then repairing each basic event in turn.
func (e *env) flipProbe(g *faultgraph.Graph) {
	ev := g.NewEvaluator()
	basics := g.BasicEvents()
	const sweeps = 200
	t0 := time.Now()
	for s := 0; s < sweeps; s++ {
		for _, id := range basics {
			ev.SetBasic(id, true)
		}
		for _, id := range basics {
			ev.SetBasic(id, false)
		}
	}
	flips := 2 * sweeps * len(basics)
	e.set("faultgraph.evaluator_flip_ns", float64(time.Since(t0).Nanoseconds())/float64(flips), flips)
}

// submitProbe times Server.Submit, called directly, on requests whose
// results a hit tier already holds: the submit path with no HTTP, no wait
// and no report fetch around it. reqs are submitted in turn.
func (e *env) submitProbe(reqs []*auditd.SubmitRequest, want provenance) (medianUS float64, allocs float64) {
	var us []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		t0 := time.Now()
		st, err := e.d.svc.Submit(req)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		if err == nil {
			err = want.verify(st)
		}
		if err != nil {
			e.check("submit probe", err)
			return 0, 0
		}
	}
	runtime.ReadMemStats(&m1)
	return median(us), float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
}

// hitProbe reports the memory-hit submit path's latency and allocations
// per call on one request the memory tier holds.
func (e *env) hitProbe(req *auditd.SubmitRequest) {
	reqs := make([]*auditd.SubmitRequest, 200)
	for i := range reqs {
		reqs[i] = req
	}
	us, allocs := e.submitProbe(reqs, fromMem)
	e.set("auditd.submit_hit_us", us, len(reqs))
	// Whole-process allocations: the idle daemon's background goroutines
	// add a fraction of an allocation per call at most.
	e.set("auditd.submit_hit_allocs", allocs, len(reqs))
}
