package topology

import (
	"reflect"
	"strings"
	"testing"
)

func TestFatTreeTable3Counts(t *testing.T) {
	// Table 3 of the paper.
	cases := []struct {
		k                          int
		cores, aggs, tors, servers int
		total                      int
	}{
		{16, 64, 128, 128, 1024, 1344},      // Topology A
		{24, 144, 288, 288, 3456, 4176},     // Topology B
		{48, 576, 1152, 1152, 27648, 30528}, // Topology C
	}
	for _, c := range cases {
		if c.k > 24 && testing.Short() {
			continue
		}
		ft, err := FatTree(c.k)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", c.k, err)
		}
		got := ft.Counts()
		want := Counts{Cores: c.cores, Aggs: c.aggs, ToRs: c.tors, Servers: c.servers}
		if got != want {
			t.Errorf("k=%d: counts = %+v, want %+v", c.k, got, want)
		}
		if got.Total() != c.total {
			t.Errorf("k=%d: total = %d, want %d", c.k, got.Total(), c.total)
		}
	}
}

func TestFatTreeInvalidArity(t *testing.T) {
	for _, k := range []int{0, -2, 3, 7} {
		if _, err := FatTree(k); err == nil {
			t.Errorf("FatTree(%d) accepted", k)
		}
	}
}

func TestFatTreeRoutes(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	srv := FatTreeServer(0, 0, 0)
	routes, err := ft.RoutesToInternet(srv)
	if err != nil {
		t.Fatal(err)
	}
	// (k/2)^2 = 4 routes, each [tor, agg, core].
	if len(routes) != 4 {
		t.Fatalf("routes = %d, want 4", len(routes))
	}
	for _, r := range routes {
		if len(r) != 3 {
			t.Fatalf("route %v should have 3 hops", r)
		}
		if r[0] != "tor0_0" {
			t.Errorf("route %v does not start at the server's ToR", r)
		}
		if !strings.HasPrefix(r[1], "agg0_") {
			t.Errorf("route %v second hop not an in-pod agg", r)
		}
		if !strings.HasPrefix(r[2], "core") {
			t.Errorf("route %v third hop not a core", r)
		}
	}
	// Aggregation switch j must pair only with core group j.
	for _, r := range routes {
		var aj, cg, ci int
		if _, err := sscan2(r[1], "agg0_%d", &aj); err != nil {
			t.Fatalf("parse %q: %v", r[1], err)
		}
		if _, err := sscan3(r[2], "core%d_%d", &cg, &ci); err != nil {
			t.Fatalf("parse %q: %v", r[2], err)
		}
		if aj != cg {
			t.Errorf("route %v pairs agg %d with core group %d", r, aj, cg)
		}
	}
	if _, err := ft.RoutesToInternet("nope"); err == nil {
		t.Error("RoutesToInternet(nope) succeeded")
	}
}

func TestFatTreeRouteDeviceSets(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := ft.RoutesToInternet(FatTreeServer(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string]bool{}
	for _, r := range routes {
		for _, d := range r {
			devs[d] = true
		}
	}
	// 1 ToR + 2 aggs + 4 cores.
	if len(devs) != 7 {
		t.Errorf("route device set = %v", devs)
	}
}

// TestNetworkRecords: one network record per route to the Internet, in route
// order; no subjects means every server.
func TestNetworkRecords(t *testing.T) {
	dc := BensonDC()
	recs, err := dc.NetworkRecords([]string{"Rack29"})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := dc.RoutesToInternet("Rack29")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(routes) != 2 {
		t.Fatalf("Rack29 records = %d, routes = %d, want 2 (dual routes)", len(recs), len(routes))
	}
	for i, r := range recs {
		if r.Network.Src != "Rack29" || r.Network.Dst != "Internet" || !reflect.DeepEqual(r.Network.Route, routes[i]) {
			t.Errorf("record %d = %+v, want route %v", i, r.Network, routes[i])
		}
	}
	if recs[0].Network.Route[0] != "e29" {
		t.Errorf("route = %v", recs[0].Network.Route)
	}

	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ft.NetworkRecords(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ft.Servers()) * 4; len(all) != want { // k=4: 4 routes per server
		t.Errorf("NetworkRecords(nil) = %d records, want %d", len(all), want)
	}
	if _, err := ft.NetworkRecords([]string{"ghost"}); err == nil {
		t.Error("unknown server accepted")
	}
}

func TestBensonDCShape(t *testing.T) {
	dc := BensonDC()
	c := dc.Counts()
	if c.ToRs != 33 {
		t.Errorf("ToRs = %d, want 33", c.ToRs)
	}
	if c.Aggs+c.Cores != 4 {
		t.Errorf("core routers = %d, want 4", c.Aggs+c.Cores)
	}
	if c.Servers != 33 {
		t.Errorf("rack representatives = %d, want 33", c.Servers)
	}
	cands := BensonCandidateRacks()
	if len(cands) != 20 {
		t.Fatalf("candidates = %d, want 20", len(cands))
	}
	has := func(name string) bool {
		for _, c := range cands {
			if c == name {
				return true
			}
		}
		return false
	}
	if !has("Rack5") || !has("Rack29") {
		t.Error("Rack5/Rack29 missing from candidates")
	}
}

func TestBensonRoutesByProfile(t *testing.T) {
	dc := BensonDC()
	cases := []struct {
		rack  string
		wants [][]string
	}{
		{"Rack29", [][]string{{"e29", "b1", "c1"}, {"e29", "b1", "c2"}}},
		{"Rack5", [][]string{{"e5", "b2", "c1"}, {"e5", "b2", "c2"}}},
		{"Rack2", [][]string{{"e2", "b1", "c1"}}},
		{"Rack9", [][]string{{"e9", "b2", "c2"}}},
		{"Rack7", [][]string{{"e7", "b1", "c2"}}},
		{"Rack1", [][]string{{"e1", "b1", "c1"}, {"e1", "b2", "c2"}}}, // non-candidate
	}
	for _, c := range cases {
		got, err := dc.RoutesToInternet(c.rack)
		if err != nil {
			t.Fatalf("%s: %v", c.rack, err)
		}
		if !reflect.DeepEqual(got, c.wants) {
			t.Errorf("%s routes = %v, want %v", c.rack, got, c.wants)
		}
	}
}

func TestDeviceLookup(t *testing.T) {
	dc := BensonDC()
	d, ok := dc.Device("e17")
	if !ok || d.Kind != KindToR {
		t.Errorf("Device(e17) = %+v, %v", d, ok)
	}
	if _, ok := dc.Device("nothere"); ok {
		t.Error("Device(nothere) found")
	}
	if KindServer.String() != "server" || KindCore.String() != "core" {
		t.Error("Kind.String broken")
	}
}

// tiny fmt.Sscanf helpers keeping test deps minimal.
func sscan2(s, format string, a *int) (int, error)    { return fmtSscanf(s, format, a) }
func sscan3(s, format string, a, b *int) (int, error) { return fmtSscanf(s, format, a, b) }
