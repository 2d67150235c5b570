package netflow

import (
	"strings"
	"testing"

	"indaas/internal/deps"
	"indaas/internal/topology"
)

func fatTree4(t *testing.T) *topology.Topology {
	t.Helper()
	ft, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestInternetFlowsDeterministicAndRouted(t *testing.T) {
	g := &Generator{Topo: fatTree4(t)}
	srv := topology.FatTreeServer(0, 0, 0)
	flows, err := g.InternetFlows(srv, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 50 {
		t.Fatalf("flows = %d", len(flows))
	}
	again, err := g.InternetFlows(srv, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if strings.Join(flows[i].Path, ",") != strings.Join(again[i].Path, ",") {
			t.Fatal("flow routing not deterministic")
		}
	}
	routes, err := g.Topo.RoutesToInternet(srv)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, r := range routes {
		valid[strings.Join(r, ",")] = true
	}
	for _, f := range flows {
		if !valid[strings.Join(f.Path, ",")] {
			t.Errorf("flow took a non-existent route %v", f.Path)
		}
	}
}

func TestInternetFlowsUnknownServer(t *testing.T) {
	g := &Generator{Topo: fatTree4(t)}
	if _, err := g.InternetFlows("ghost", 5); err == nil {
		t.Error("unknown server accepted")
	}
}

func TestMineRecoversAllRoutes(t *testing.T) {
	g := &Generator{Topo: fatTree4(t)}
	srv := topology.FatTreeServer(1, 0, 1)
	flows, err := g.InternetFlows(srv, 400)
	if err != nil {
		t.Fatal(err)
	}
	m := &Miner{MinFlows: 2}
	recs := m.Mine(flows)
	cov, err := Coverage(g.Topo, srv, recs)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1 {
		t.Errorf("coverage with 400 flows = %v, want 1 (k=4 has only 4 routes)", cov)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid mined record: %v", err)
		}
		if r.Network.Src != srv || r.Network.Dst != "Internet" {
			t.Errorf("mined record endpoints: %+v", r.Network)
		}
	}
}

// TestMineMatchesTopologyOnSmallTree: with enough flows, mining recovers the
// topology's ground truth and nothing else, one record per route.
func TestMineMatchesTopologyOnSmallTree(t *testing.T) {
	g := &Generator{Topo: fatTree4(t)}
	srv := topology.FatTreeServer(0, 0, 0)
	flows, err := g.InternetFlows(srv, 500)
	if err != nil {
		t.Fatal(err)
	}
	recs := (&Miner{MinFlows: 1}).Mine(flows)
	truth, err := g.Topo.NetworkRecords([]string{srv})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(truth) {
		t.Fatalf("mined %d routes, the topology has %d", len(recs), len(truth))
	}
	mined := map[string]bool{}
	for _, r := range recs {
		mined[r.String()] = true
	}
	for _, r := range truth {
		if !mined[r.String()] {
			t.Errorf("ground-truth route %v not mined", r.Network.Route)
		}
	}
}

func TestMineCoverageGrowsWithFlows(t *testing.T) {
	// On a larger tree, few flows cover few routes; more flows cover more.
	ft, err := topology.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	g := &Generator{Topo: ft}
	srv := topology.FatTreeServer(0, 0, 0)
	m := &Miner{}
	coverages := make([]float64, 0, 3)
	for _, n := range []int{4, 32, 2000} {
		flows, err := g.InternetFlows(srv, n)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := Coverage(ft, srv, m.Mine(flows))
		if err != nil {
			t.Fatal(err)
		}
		coverages = append(coverages, cov)
	}
	if !(coverages[0] < coverages[2]) {
		t.Errorf("coverage not growing: %v", coverages)
	}
	if coverages[2] != 1 {
		t.Errorf("2000 flows over 16 routes should reach full coverage, got %v", coverages[2])
	}
}

func TestMineThreshold(t *testing.T) {
	flows := []Flow{
		{Src: "a", Dst: "Internet", Path: []string{"x"}},
		{Src: "a", Dst: "Internet", Path: []string{"x"}},
		{Src: "a", Dst: "Internet", Path: []string{"y"}}, // seen once: filtered
	}
	m := &Miner{MinFlows: 2}
	recs := m.Mine(flows)
	if len(recs) != 1 || recs[0].Network.Route[0] != "x" {
		t.Errorf("threshold mining = %v", recs)
	}
}

func TestCoverageIgnoresOtherServers(t *testing.T) {
	ft := fatTree4(t)
	srv := topology.FatTreeServer(0, 0, 0)
	other := deps.NewNetwork(topology.FatTreeServer(0, 0, 1), "Internet", "tor0_0", "agg0_0", "core0_0")
	cov, err := Coverage(ft, srv, []deps.Record{other})
	if err != nil {
		t.Fatal(err)
	}
	if cov != 0 {
		t.Errorf("coverage counted another server's records: %v", cov)
	}
}
