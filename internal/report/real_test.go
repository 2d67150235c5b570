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

func init() { report.RealShapes = realShapes }

var real struct {
	once    sync.Once
	k8, k16 *report.Report
	err     error
}

// realShapes audits one cross-pod server pair on each of the benchmark's two
// datasets: restart_read's three-kind k=8 fleet and fig7_exact's k=16 fat
// tree (network records only).
func realShapes(tb testing.TB) (k8, k16 *report.Report) {
	real.once.Do(func() {
		real.k8, real.err = auditPair(fleetRecords, "srv0_0_0", "srv1_0_0")
		if real.err == nil {
			real.k16, real.err = auditPair(fatTreeRecords, topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0))
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

func fatTreeRecords() ([]deps.Record, error) {
	ft, err := topology.FatTree(16)
	if err != nil {
		return nil, err
	}
	return ft.NetworkRecords([]string{topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0)})
}

func auditPair(records func() ([]deps.Record, error), a, b string) (*report.Report, error) {
	recs, err := records()
	if err != nil {
		return nil, err
	}
	db := depdb.New()
	if err := db.Put(recs...); err != nil {
		return nil, err
	}
	spec := sia.GraphSpec{Deployment: "bench-s1-000000", Servers: []string{a, b}}
	return sia.AuditDeployments(db.Snapshot(), "bench", []sia.GraphSpec{spec}, sia.Options{Algorithm: sia.MinimalRG})
}
