package agent

import (
	"testing"

	"indaas/internal/audittrail"
)

// TestPSOPAuditTrail runs a P-SOP round and checks the §5.2 accountability
// path: every provider's signed commitment is collected and verified, and a
// later meta-audit accepts honest dataset reveals while catching
// under-declared ones.
func TestPSOPAuditTrail(t *testing.T) {
	sets := map[string][]string{
		"CloudA": {"pkg:libc6=2.19", "a/one", "a/two"},
		"CloudB": {"pkg:libc6=2.19", "b/one"},
	}
	var addrs []string
	order := []string{"CloudA", "CloudB"}
	for _, name := range order {
		px, err := NewNamedProxy("127.0.0.1:0", name, sets[name])
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		addrs = append(addrs, px.Addr())
	}
	inter, union, commitments, err := SupervisePSOPWithTrail("trail-run", addrs)
	if err != nil {
		t.Fatal(err)
	}
	if inter != 1 || union != 4 {
		t.Errorf("cardinalities = (%d, %d), want (1, 4)", inter, union)
	}
	if len(commitments) != 2 {
		t.Fatalf("commitments = %d, want 2", len(commitments))
	}
	byProvider := map[string]*audittrail.Commitment{}
	for _, c := range commitments {
		if err := c.Verify(); err != nil {
			t.Errorf("commitment from %s: %v", c.Provider, err)
		}
		if c.RunID != "trail-run" {
			t.Errorf("commitment run ID = %q", c.RunID)
		}
		byProvider[c.Provider] = c
	}
	for _, name := range order {
		c, ok := byProvider[name]
		if !ok {
			t.Fatalf("no commitment from %s", name)
		}
		// Honest reveal passes the meta-audit.
		if err := audittrail.MetaAudit(c, sets[name]); err != nil {
			t.Errorf("meta-audit of %s: %v", name, err)
		}
		// The §5.2 attack — revealing fewer components than were used —
		// is caught.
		if err := audittrail.MetaAudit(c, sets[name][:1]); err == nil {
			t.Errorf("%s: under-declared reveal accepted", name)
		}
	}
}
