package pia

import (
	"math"
	"strings"
	"testing"

	"indaas/internal/deps"
)

func fourProviders() []Provider {
	// Hand-built sets with known Jaccards:
	// A∩B = {s1,s2}, |A∪B| = 6 → 1/3.
	return []Provider{
		{Name: "CloudA", Components: []string{"s1", "s2", "a1", "a2"}},
		{Name: "CloudB", Components: []string{"s1", "s2", "b1", "b2"}},
		{Name: "CloudC", Components: []string{"s1", "c1", "c2", "c3"}},
		{Name: "CloudD", Components: []string{"d1", "d2", "d3", "d4"}},
	}
}

// asParties wraps every provider as one that keeps its own dataset, so every
// deployment runs P-SOP.
func asParties(providers []Provider) []Provider {
	out := make([]Provider, len(providers))
	for i, p := range providers {
		out[i] = AsParty(p, 1)
	}
	return out
}

// TestCleartextPairs: deployments of held datasets are counted in cleartext,
// exact and with nothing on the wire.
func TestCleartextPairs(t *testing.T) {
	providers := fourProviders()
	rep, err := AuditDeployments(Config{}, providers, AllPairs(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 6 {
		t.Fatalf("entries = %d", len(rep.Entries))
	}
	// Most independent first: any pair with CloudD has Jaccard 0.
	if rep.Entries[0].Jaccard != 0 {
		t.Errorf("best pair Jaccard = %v", rep.Entries[0].Jaccard)
	}
	// A&B share 2 of 6.
	found := false
	for _, e := range rep.Entries {
		if DeploymentKey(e.Providers) == "CloudA & CloudB" {
			found = true
			if math.Abs(e.Jaccard-1.0/3.0) > 1e-12 {
				t.Errorf("J(A,B) = %v, want 1/3", e.Jaccard)
			}
		}
		if e.BytesSent != 0 {
			t.Errorf("%v: held datasets sent %d bytes", e.Providers, e.BytesSent)
		}
	}
	if !found {
		t.Error("CloudA & CloudB missing from report")
	}
	// Ranking is ascending.
	for i := 1; i < len(rep.Entries); i++ {
		if rep.Entries[i].Jaccard < rep.Entries[i-1].Jaccard {
			t.Error("report not ranked ascending")
		}
	}
}

func TestPSOPExactMatchesCleartext(t *testing.T) {
	providers := fourProviders()
	deployments := []Deployment{{0, 1}, {1, 2}, {0, 1, 2}}
	clear, err := AuditDeployments(Config{}, providers, deployments)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := AuditDeployments(Config{}, asParties(providers), deployments)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clear.Entries {
		c, p := clear.Entries[i], priv.Entries[i]
		if DeploymentKey(c.Providers) != DeploymentKey(p.Providers) {
			t.Fatalf("entry order differs: %v vs %v", c.Providers, p.Providers)
		}
		if math.Abs(c.Jaccard-p.Jaccard) > 1e-12 {
			t.Errorf("%v: cleartext %v, P-SOP %v", c.Providers, c.Jaccard, p.Jaccard)
		}
		if p.BytesSent == 0 {
			t.Error("P-SOP reported zero bandwidth")
		}
	}
}

func TestAuditErrors(t *testing.T) {
	providers := fourProviders()
	if _, err := AuditDeployments(Config{}, providers[:1], AllPairs(1)); err == nil {
		t.Error("single provider accepted")
	}
	if _, err := AuditDeployments(Config{}, providers, nil); err == nil {
		t.Error("no deployments accepted")
	}
	if _, err := AuditDeployments(Config{}, providers, []Deployment{{0}}); err == nil {
		t.Error("single-member deployment accepted")
	}
	if _, err := AuditDeployments(Config{}, providers, []Deployment{{0, 9}}); err == nil {
		t.Error("out-of-range provider accepted")
	}
	bad := append([]Provider{}, providers...)
	bad[0].Components = nil
	if _, err := AuditDeployments(Config{}, bad, AllPairs(4)); err == nil {
		t.Error("empty component-set accepted")
	}
	bad2 := append([]Provider{}, providers...)
	bad2[1].Name = ""
	if _, err := AuditDeployments(Config{}, bad2, AllPairs(4)); err == nil {
		t.Error("unnamed provider accepted")
	}
}

func TestEnumerators(t *testing.T) {
	if got := len(AllPairs(20)); got != 190 {
		t.Errorf("AllPairs(20) = %d, want 190", got)
	}
	if got := len(AllTriples(4)); got != 4 {
		t.Errorf("AllTriples(4) = %d, want 4", got)
	}
	if got := len(AllPairs(1)); got != 0 {
		t.Errorf("AllPairs(1) = %d", got)
	}
}

func TestNormalizeProvider(t *testing.T) {
	n := deps.NewNormalizer("c1")
	n.AddSharedPackage("libc6=2.19")
	p := NormalizeProvider("Cloud1", n, []deps.Record{
		deps.NewSoftware("riak", "S1", "libc6=2.19", "internal=1"),
	})
	if p.Name != "Cloud1" || len(p.Components) != 2 {
		t.Fatalf("provider = %+v", p)
	}
	if !strings.Contains(strings.Join(p.Components, " "), "pkg:libc6=2.19") {
		t.Errorf("components = %v", p.Components)
	}
}

func TestPIAReportRendering(t *testing.T) {
	providers := fourProviders()
	rep, err := AuditDeployments(Config{}, providers, AllPairs(4))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Rank", "Jaccard", "CloudA & CloudB"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestPartyProviders: a provider that holds its own dataset (Party set,
// Components empty) is audited by P-SOP to the Jaccard the same components
// give in cleartext, whether every member of a deployment keeps its set or
// only one does.
func TestPartyProviders(t *testing.T) {
	providers := fourProviders()
	parties := asParties(providers)
	deployments := []Deployment{{0, 1}, {1, 2}, {0, 1, 2}}
	want, err := AuditDeployments(Config{}, providers, deployments)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]Provider{parties[0]}, providers[1:]...)
	for _, provs := range [][]Provider{parties, mixed} {
		got, err := AuditDeployments(Config{}, provs, deployments)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Entries {
			if DeploymentKey(got.Entries[i].Providers) != DeploymentKey(want.Entries[i].Providers) || got.Entries[i].Jaccard != want.Entries[i].Jaccard {
				t.Errorf("entry %d: %+v, want %+v", i, got.Entries[i], want.Entries[i])
			}
		}
	}
}
