// Package core holds the acquisition interface the service benchmark's
// record generator calls. Audits run through the daemon (internal/auditd);
// record generators live in their source packages (topology, netflow, hwinv,
// swpkg, cloudsim).
package core

import (
	"indaas/internal/deps"
	"indaas/internal/topology"
)

// Acquirer is a pluggable dependency acquisition module: anything that can
// produce Table 1 records for the requested subjects (empty = all known).
type Acquirer interface {
	Collect(subjects []string) ([]deps.Record, error)
}

// AcquirerFunc adapts a function to the Acquirer interface.
type AcquirerFunc func(subjects []string) ([]deps.Record, error)

// Collect implements Acquirer.
func (f AcquirerFunc) Collect(subjects []string) ([]deps.Record, error) { return f(subjects) }

// TopologyAcquirer serves ground-truth routes straight from the topology
// (see topology.Topology.NetworkRecords).
func TopologyAcquirer(topo *topology.Topology) Acquirer { return AcquirerFunc(topo.NetworkRecords) }
