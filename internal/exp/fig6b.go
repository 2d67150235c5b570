package exp

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"indaas/internal/auditd"
	"indaas/internal/cloudsim"
	"indaas/internal/deps"
	"indaas/internal/report"
)

// Fig6bResult is the outcome of the §6.2.2 hardware case study.
type Fig6bResult struct {
	// VM7Host and VM8Host record where OpenStack-style placement put the
	// two Riak replicas (paper: both on Server2).
	VM7Host, VM8Host string
	// Top4 are the four highest-ranked RGs of the initial audit
	// (paper: {Server2}, {Switch1}, {Core1,Core2}, {VM7,VM8}).
	Top4 [][]string
	// Suggestion is the server pair the audit report recommends for
	// re-deployment (paper: {Server2, Server3}).
	Suggestion string
	// AfterUnexpected counts unexpected RGs after re-deploying per the
	// suggestion (paper: zero size-1 RGs remain).
	AfterUnexpected int
}

// RunFig6b executes the common-hardware-dependency case study: a four-server
// lab cloud with pre-existing load, least-loaded VM placement, a minimal-RG
// audit of the Riak deployment, and the re-deployment the report suggests.
func RunFig6b() (*Fig6bResult, error) {
	cloud := cloudsim.FourServerLab(1)
	// Pre-existing, unevenly distributed services (the "various services on
	// VMs for different uses" of §6.2.2) leave Server2 idle.
	for _, pin := range []struct{ vm, host string }{
		{"web-vm1", "Server1"}, {"web-vm2", "Server1"},
		{"batch-vm3", "Server3"}, {"batch-vm4", "Server3"},
		{"db-vm5", "Server4"}, {"db-vm6", "Server4"},
	} {
		if _, err := cloud.PlaceOn(pin.vm, pin.host); err != nil {
			return nil, err
		}
	}
	// OpenStack's least-loaded policy places both Riak VMs on Server2.
	vm7, err := cloud.Place("VM7", "riak", cloudsim.LeastLoaded)
	if err != nil {
		return nil, err
	}
	vm8, err := cloud.Place("VM8", "riak", cloudsim.LeastLoaded)
	if err != nil {
		return nil, err
	}
	res := &Fig6bResult{VM7Host: vm7.Host, VM8Host: vm8.Host}
	ctx := context.Background() // the run owns the service it starts
	s := auditd.New(auditd.Config{})
	defer s.Shutdown(ctx)

	// Audit the deployed configuration (network + hardware dependencies,
	// minimal RG algorithm, size ranking).
	audit, err := auditRiakVMs(ctx, s, cloud)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4 && i < len(audit.RGs); i++ {
		res.Top4 = append(res.Top4, audit.RGs[i].Components)
	}

	// Consult the report for the most independent server pair, preferring
	// fewer migrations among ties (keep a replica on its current host).
	suggestion, err := suggestRedeployment(ctx, s, cloud, []string{vm7.Host, vm8.Host})
	if err != nil {
		return nil, err
	}
	res.Suggestion = suggestion[0] + "+" + suggestion[1]

	// Re-deploy per the suggestion and re-audit.
	if err := migrateTo(cloud, suggestion); err != nil {
		return nil, err
	}
	after, err := auditRiakVMs(ctx, s, cloud)
	if err != nil {
		return nil, err
	}
	res.AfterUnexpected = after.Unexpected
	return res, nil
}

// auditRiakVMs audits the two Riak VMs' current placement on the audit
// service, the cloud's records inline: network and hardware dependencies,
// minimal RG algorithm, size ranking.
func auditRiakVMs(ctx context.Context, s *auditd.Server, cloud *cloudsim.Cloud) (*report.DeploymentAudit, error) {
	var records []deps.Record
	for _, vm := range []string{"VM7", "VM8"} {
		recs, err := cloud.DependencyRecords(vm)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
	}
	rep, err := serveAudit(ctx, s, &auditd.SubmitRequest{
		Title:   "fig6b riak",
		Records: auditd.WireRecords(records),
		Deployments: []auditd.DeploymentWire{{
			Name: "riak", Servers: []string{"VM7", "VM8"}, Kinds: []string{"network", "hardware"},
		}},
	})
	if err != nil {
		return nil, err
	}
	return &rep.Audits[0], nil
}

// suggestRedeployment audits every server pair as a hypothetical placement
// of the two replicas and returns the most independent pair; among ties it
// prefers pairs that keep replicas on their current hosts (fewer
// migrations), then lexicographic order.
func suggestRedeployment(ctx context.Context, s *auditd.Server, cloud *cloudsim.Cloud, current []string) ([2]string, error) {
	var all []scoredPair
	for _, pair := range cloud.ServerPairs() {
		audit, err := auditHypotheticalPair(ctx, s, cloud, pair)
		if err != nil {
			return [2]string{}, err
		}
		all = append(all, scoredPair{pair: pair, audit: audit})
	}
	curCount := func(pair [2]string) int {
		n := 0
		for _, host := range current {
			if host == pair[0] || host == pair[1] {
				n++
			}
		}
		return n
	}
	best := all[0]
	for _, s := range all[1:] {
		if lessPair(s, best, curCount) {
			best = s
		}
	}
	return best.pair, nil
}

type scoredPair struct {
	pair  [2]string
	audit *report.DeploymentAudit
}

func lessPair(a, b scoredPair, curCount func([2]string) int) bool {
	av, bv := a.audit.SizeVector(), b.audit.SizeVector()
	for k := 0; k < len(av) || k < len(bv); k++ {
		var x, y int
		if k < len(av) {
			x = av[k]
		}
		if k < len(bv) {
			y = bv[k]
		}
		if x != y {
			return x < y
		}
	}
	if ca, cb := curCount(a.pair), curCount(b.pair); ca != cb {
		return ca > cb // more replicas already in place = fewer migrations
	}
	return a.pair[0]+a.pair[1] < b.pair[0]+b.pair[1]
}

// auditHypotheticalPair audits VM7-on-pair[0], VM8-on-pair[1] without
// touching the real cloud: it builds the records a re-deployed pair would
// produce.
func auditHypotheticalPair(ctx context.Context, s *auditd.Server, cloud *cloudsim.Cloud, pair [2]string) (*report.DeploymentAudit, error) {
	scratch, err := cloudsim.New(cloud.Servers, cloud.Cores, 1)
	if err != nil {
		return nil, err
	}
	if _, err := scratch.PlaceOn("VM7", pair[0]); err != nil {
		return nil, err
	}
	if _, err := scratch.PlaceOn("VM8", pair[1]); err != nil {
		return nil, err
	}
	return auditRiakVMs(ctx, s, scratch)
}

// migrateTo moves the replicas onto the suggested pair (keeping in-place
// replicas where possible).
func migrateTo(cloud *cloudsim.Cloud, pair [2]string) error {
	vm7, _ := cloud.VMOf("VM7")
	vm8, _ := cloud.VMOf("VM8")
	switch {
	case vm7.Host == pair[0]:
		return cloud.Migrate("VM8", pair[1])
	case vm7.Host == pair[1]:
		return cloud.Migrate("VM8", pair[0])
	case vm8.Host == pair[0]:
		return cloud.Migrate("VM7", pair[1])
	case vm8.Host == pair[1]:
		return cloud.Migrate("VM7", pair[0])
	default:
		if err := cloud.Migrate("VM7", pair[0]); err != nil {
			return err
		}
		return cloud.Migrate("VM8", pair[1])
	}
}

// Render formats the result alongside the paper's published outcome.
func (r *Fig6bResult) Render() *Table {
	t := &Table{
		Title:  "Fig. 6b — common hardware dependency case study (§6.2.2)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Append("VM7 placement", r.VM7Host, "Server2")
	t.Append("VM8 placement", r.VM8Host, "Server2")
	for i, rg := range r.Top4 {
		t.Append(fmt.Sprintf("top RG #%d", i+1), "{"+strings.Join(rg, ", ")+"}", fig6bPaperTop4[i])
	}
	t.Append("re-deployment suggestion", r.Suggestion, "Server2+Server3")
	t.Append("unexpected RGs after re-deploy", r.AfterUnexpected, 0)
	return t
}

var fig6bPaperTop4 = []string{"{Server2}", "{Switch1}", "{Core1, Core2}", "{VM7, VM8}"}

// Verify checks the acceptance criteria against the paper.
func (r *Fig6bResult) Verify() error {
	if r.VM7Host != "Server2" || r.VM8Host != "Server2" {
		return fmt.Errorf("fig6b: placement %s/%s, want Server2/Server2", r.VM7Host, r.VM8Host)
	}
	want := [][]string{
		{"Server2"},
		{"Switch1"},
		{"Core1", "Core2"},
		{"VM7", "VM8"},
	}
	if !reflect.DeepEqual(r.Top4, want) {
		return fmt.Errorf("fig6b: top-4 RGs = %v, want %v", r.Top4, want)
	}
	if r.Suggestion != "Server2+Server3" {
		return fmt.Errorf("fig6b: suggestion %q, want Server2+Server3", r.Suggestion)
	}
	if r.AfterUnexpected != 0 {
		return fmt.Errorf("fig6b: %d unexpected RGs after re-deploy", r.AfterUnexpected)
	}
	return nil
}
