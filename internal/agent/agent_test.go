package agent

import (
	"encoding/base64"
	"math"
	"strings"
	"testing"

	"indaas/internal/crypto/commutative"
	"indaas/internal/deps"
	"indaas/internal/psi"
	"indaas/internal/wire"
)

func TestWireRecordRoundTrip(t *testing.T) {
	records := []deps.Record{
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewHardware("S1", "Disk", "S1-SED900"),
		deps.NewSoftware("Riak1", "S1", "libc6", "libsvn1"),
	}
	for i, r := range records {
		got, err := FromWire(ToWire(r))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !got.Equal(r) {
			t.Errorf("record %d: %v != %v", i, got, r)
		}
	}
	if _, err := FromWire(WireRecord{Kind: "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, err := FromWire(WireRecord{Kind: "hardware"}); err == nil {
		t.Error("invalid hardware record accepted")
	}
}

func TestStaticAcquirer(t *testing.T) {
	a := StaticAcquirer{
		deps.NewHardware("S1", "CPU", "m1"),
		deps.NewHardware("S2", "CPU", "m2"),
	}
	all, err := a.Collect(nil)
	if err != nil || len(all) != 2 {
		t.Fatalf("Collect(nil) = %d records, %v", len(all), err)
	}
	one, err := a.Collect([]string{"S2"})
	if err != nil || len(one) != 1 || one[0].Hardware.HW != "S2" {
		t.Fatalf("Collect(S2) = %v, %v", one, err)
	}
}

// TestSIAOverLoopback exercises the full Fig. 5a flow: two data sources, an
// auditing agent, and a client, all over 127.0.0.1.
func TestSIAOverLoopback(t *testing.T) {
	// Data source 1 serves S1/S2 (shared ToR); source 2 serves S3/S4
	// (disjoint network).
	src1, err := NewSource("127.0.0.1:0", StaticAcquirer{
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S2", "Internet", "ToR1", "Core2"),
		deps.NewHardware("S1", "Disk", "S1-disk"),
		deps.NewHardware("S2", "Disk", "S2-disk"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src1.Close()
	src2, err := NewSource("127.0.0.1:0", StaticAcquirer{
		deps.NewNetwork("S3", "Internet", "ToR3", "Core3"),
		deps.NewNetwork("S4", "Internet", "ToR4", "Core4"),
		deps.NewHardware("S3", "Disk", "S3-disk"),
		deps.NewHardware("S4", "Disk", "S4-disk"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()

	ag, err := NewAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()

	client, err := NewClient(ag.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Audit(AuditRequest{
		Title:   "loopback",
		Sources: []string{src1.Addr(), src2.Addr()},
		Deployments: []DeploymentSpec{
			{Name: "shared-tor", Servers: []string{"S1", "S2"}},
			{Name: "disjoint", Servers: []string{"S3", "S4"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Audits) != 2 {
		t.Fatalf("audits = %d", len(resp.Audits))
	}
	// The disjoint deployment must rank first (no unexpected RGs).
	if resp.Audits[0].Deployment != "disjoint" {
		t.Errorf("best = %q, want disjoint", resp.Audits[0].Deployment)
	}
	if resp.Audits[0].Unexpected != 0 {
		t.Errorf("disjoint unexpected = %d", resp.Audits[0].Unexpected)
	}
	if resp.Audits[1].Unexpected == 0 {
		t.Error("shared-tor should have an unexpected RG (ToR1)")
	}
	foundToR := false
	for _, rg := range resp.Audits[1].RGs {
		if len(rg) == 1 && rg[0] == "ToR1" {
			foundToR = true
		}
	}
	if !foundToR {
		t.Errorf("ToR1 RG missing: %v", resp.Audits[1].RGs)
	}
}

func TestSIAOverLoopbackWithProbabilities(t *testing.T) {
	src, err := NewSource("127.0.0.1:0", StaticAcquirer{
		deps.NewNetwork("S1", "Internet", "ToR1"),
		deps.NewNetwork("S2", "Internet", "ToR1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ag, err := NewAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	client, err := NewClient(ag.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Audit(AuditRequest{
		Title:       "weighted",
		Sources:     []string{src.Addr()},
		Deployments: []DeploymentSpec{{Name: "pair", Servers: []string{"S1", "S2"}}},
		FailureProb: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Audits[0].FailureProb == nil {
		t.Fatal("failure probability missing")
	}
	// Single shared ToR: Pr(T) = 0.1.
	if math.Abs(*resp.Audits[0].FailureProb-0.1) > 1e-12 {
		t.Errorf("Pr(T) = %v", *resp.Audits[0].FailureProb)
	}
}

func TestAgentErrorsPropagate(t *testing.T) {
	ag, err := NewAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	client, err := NewClient(ag.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// No sources.
	if _, err := client.Audit(AuditRequest{Deployments: []DeploymentSpec{{Name: "x", Servers: []string{"S"}}}}); err == nil {
		t.Error("missing sources accepted")
	}
	// Unreachable source.
	if _, err := client.Audit(AuditRequest{
		Sources:     []string{"127.0.0.1:1"},
		Deployments: []DeploymentSpec{{Name: "x", Servers: []string{"S"}}},
	}); err == nil {
		t.Error("unreachable source accepted")
	}
	// Bad algorithm.
	src, err := NewSource("127.0.0.1:0", StaticAcquirer{deps.NewHardware("S", "CPU", "m")})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := client.Audit(AuditRequest{
		Sources:     []string{src.Addr()},
		Deployments: []DeploymentSpec{{Name: "x", Servers: []string{"S"}}},
		Algorithm:   "quantum",
	}); err == nil || !strings.Contains(err.Error(), "algorithm") {
		t.Errorf("bad algorithm not rejected: %v", err)
	}
}

// TestPSOPOverLoopback runs the full Fig. 5b PIA flow: three provider
// proxies execute the ring protocol over TCP and the supervisor counts
// cardinalities on ciphertexts only.
func TestPSOPOverLoopback(t *testing.T) {
	sets := [][]string{
		{"pkg:libc6=2.19", "pkg:libssl=1.0.1", "c1/private-a", "c1/private-b"},
		{"pkg:libc6=2.19", "pkg:libssl=1.0.1", "c2/private"},
		{"pkg:libc6=2.19", "c3/priv-1", "c3/priv-2"},
	}
	var proxies []*Proxy
	var addrs []string
	for _, s := range sets {
		p, err := NewProxy("127.0.0.1:0", s)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}
	inter, union, err := SupervisePSOP("run-1", addrs)
	if err != nil {
		t.Fatal(err)
	}
	wantInter, wantUnion, err := psi.CleartextCardinality(sets)
	if err != nil {
		t.Fatal(err)
	}
	if inter != wantInter || union != wantUnion {
		t.Errorf("P-SOP over TCP = (%d,%d), want (%d,%d)", inter, union, wantInter, wantUnion)
	}
	// A second run on the same proxies must work (fresh run ID).
	inter2, union2, err := SupervisePSOP("run-2", addrs)
	if err != nil {
		t.Fatal(err)
	}
	if inter2 != wantInter || union2 != wantUnion {
		t.Errorf("second run = (%d,%d)", inter2, union2)
	}
	// Duplicate run ID must be rejected.
	if _, _, err := SupervisePSOP("run-1", addrs); err == nil {
		t.Error("duplicate run ID accepted")
	}
}

// TestProxyRefusesDegenerateElements: a dishonest predecessor could plant a
// low-order point, which every key maps to the same value and so matches at
// every party, or send bytes that are not a point at all. The hop must fail
// the run by name rather than re-encrypt and forward either.
func TestProxyRefusesDegenerateElements(t *testing.T) {
	p, err := NewProxy("127.0.0.1:0", []string{"pkg:a"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The successor and supervisor addresses are never dialled: a refused
	// hop fails before it forwards anything.
	if err := p.startRun(PSOPStart{RunID: "run-bad", Ring: []string{p.Addr(), "127.0.0.1:1"}, Supervisor: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	key, err := commutative.NewKey(strings.NewReader(strings.Repeat("k", commutative.Size)))
	if err != nil {
		t.Fatal(err)
	}
	valid := key.EncryptElement([]byte("pkg:b"))
	one := make([]byte, commutative.Size)
	one[0] = 1
	for _, tc := range []struct {
		name string
		elem []byte
	}{
		{"all-zero", make([]byte, commutative.Size)},
		{"one", one},
		{"short", valid[:commutative.Size-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := wire.Dial(p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fwd := PSOPForward{RunID: "run-bad", Owner: 1, Hops: 1, Elements: []string{
				base64.StdEncoding.EncodeToString(valid[:]),
				base64.StdEncoding.EncodeToString(tc.elem),
			}}
			if err := conn.Send(TypePSOPForward, fwd); err != nil {
				t.Fatal(err)
			}
			err = conn.Expect(TypePSOPAck, nil)
			if err == nil || !strings.Contains(err.Error(), `run "run-bad"`) {
				t.Fatalf("hop answered %v, want an error naming the run", err)
			}
		})
	}
}

func TestProxyValidation(t *testing.T) {
	if _, err := NewProxy("127.0.0.1:0", nil); err == nil {
		t.Error("empty component-set accepted")
	}
	if _, _, err := SupervisePSOP("r", []string{"127.0.0.1:1"}); err == nil {
		t.Error("single proxy accepted")
	}
}
