// The codec tests measure and fuzz on the two report shapes the benchmark
// serves, and only sia can build those. sia imports this package, so the
// builder lives out here and hands itself to the in-package tests.
package report_test

import (
	"sync"
	"testing"

	"indaas/internal/agentsim"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/sia"
	"indaas/internal/topology"
)

func init() {
	report.RealShapes = realShapes
	report.SamplingShape = samplingShape
}

var real struct {
	once    sync.Once
	k8, k16 *report.Report
	err     error
}

var sampled struct {
	once sync.Once
	rep  *report.Report
	err  error
}

// realShapes audits one cross-pod server pair on each of the benchmark's two
// datasets: restart_read's three-kind k=8 fleet and fig7_exact's k=16 fat
// tree (network records only).
func realShapes(tb testing.TB) (k8, k16 *report.Report) {
	real.once.Do(func() {
		real.k8, real.err = auditPair(fleetRecords, "srv0_0_0", "srv1_0_0", sia.Options{Algorithm: sia.MinimalRG})
		if real.err == nil {
			real.k16, real.err = auditPair(fatTreeRecords(16), topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0), sia.Options{Algorithm: sia.MinimalRG})
		}
	})
	if real.err != nil {
		tb.Fatal(real.err)
	}
	return real.k8, real.k16
}

func fleetRecords() ([]deps.Record, error) {
	fleet, err := agentsim.New(agentsim.Config{K: 8, Seed: 1})
	if err != nil {
		return nil, err
	}
	batches, err := fleet.Bootstrap()
	if err != nil {
		return nil, err
	}
	var recs []deps.Record
	for _, b := range batches {
		recs = append(recs, b...)
	}
	return recs, nil
}

// samplingShape is fig7_sampling's report: a failure-sampling audit (10⁵
// rounds) of a cross-pod server pair over a k=8 fat tree's network records.
func samplingShape(tb testing.TB) *report.Report {
	sampled.once.Do(func() {
		sampled.rep, sampled.err = auditPair(fatTreeRecords(8), topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0),
			sia.Options{Algorithm: sia.FailureSampling, Rounds: 100_000, Seed: 1})
	})
	if sampled.err != nil {
		tb.Fatal(sampled.err)
	}
	return sampled.rep
}

func fatTreeRecords(k int) func() ([]deps.Record, error) {
	return func() ([]deps.Record, error) {
		ft, err := topology.FatTree(k)
		if err != nil {
			return nil, err
		}
		return ft.NetworkRecords([]string{topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0)})
	}
}

func auditPair(records func() ([]deps.Record, error), a, b string, opts sia.Options) (*report.Report, error) {
	recs, err := records()
	if err != nil {
		return nil, err
	}
	db := depdb.New()
	if err := db.Put(recs...); err != nil {
		return nil, err
	}
	spec := sia.GraphSpec{Deployment: "bench-s1-000000", Servers: []string{a, b}}
	return sia.AuditDeployments(db.Snapshot(), "bench", []sia.GraphSpec{spec}, opts)
}
