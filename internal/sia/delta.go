package sia

import (
	"sort"

	"indaas/internal/depdb"
)

// This file maps DepDB changes onto the audit subjects they can affect.
// BuildGraph reads exactly the records of a deployment's servers, restricted
// to the spec's kinds (§4.1.1 Steps 2–6), so a diffed record reaches a
// deployment's fault-graph cone iff its subject is one of the deployment's
// servers and its kind is one the spec wants. A deployment none of whose
// servers are touched builds a byte-identical fault graph against either
// snapshot, and therefore audits identically — which is also why the audit
// service can address a result by depdb.Snapshot.Scope over its deployments'
// servers and kinds.

// DirtyDeployments reports, for each spec, whether its fault graph can
// differ between two snapshots related by diff — true iff some diffed record
// of a kind the spec wants is about one of the spec's servers. subjects is
// the sorted union of the servers that dirtied at least one spec; a spec
// with dirty[i] == false is guaranteed to audit identically against either
// snapshot.
func DirtyDeployments(specs []GraphSpec, d depdb.Diff) (dirty []bool, subjects []string) {
	touched := d.Touched()
	dirty = make([]bool, len(specs))
	subjSet := make(map[string]bool)
	for i := range specs {
		spec := &specs[i]
		servers := make(map[string]bool, len(spec.Servers))
		for _, srv := range spec.Servers {
			servers[srv] = true
		}
		for _, r := range touched {
			if spec.wantKind(r.Kind) && servers[r.Subject()] {
				dirty[i] = true
				subjSet[r.Subject()] = true
			}
		}
	}
	subjects = make([]string, 0, len(subjSet))
	for s := range subjSet {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	return dirty, subjects
}
