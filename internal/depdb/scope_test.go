package depdb_test

import (
	"strings"
	"testing"

	"indaas/internal/depdb"
	"indaas/internal/deps"
)

// TestScopeDigestAddressesReducedState pins the four properties the audit
// service's addresses rest on: a subject's scope digest depends on its live
// records alone — not on insertion order, not on re-observation, not on when
// the log compacted — and it lives in a hash domain no fingerprint shares, so
// no address derived from a fingerprint can alias one derived from a scope.
func TestScopeDigestAddressesReducedState(t *testing.T) {
	s1 := []deps.Record{
		deps.NewNetwork("s1", "Internet", "tor1", "core1"),
		deps.NewNetwork("s1", "Internet", "tor1", "core2"),
		deps.NewHardware("s1", "NIC", "s1-nicA"),
		deps.NewHardware("s1", "Disk", "s1-disk"),
		deps.NewSoftware("nginx", "s1", "libc6", "libssl3"),
	}
	s2 := []deps.Record{
		deps.NewNetwork("s2", "Internet", "tor2", "core1"),
		deps.NewHardware("s2", "NIC", "s2-nic"),
	}
	scopes := func(db *depdb.DB) []string {
		snap := db.Snapshot()
		var out []string
		for _, subj := range [][]string{{"s1"}, {"s2"}, {"s1", "s2"}, {"s2", "s1"}, {"nobody"}} {
			out = append(out, snap.Scope(subj, nil))
			for _, k := range modelKinds {
				out = append(out, snap.Scope(subj, []deps.Kind{k}))
			}
		}
		return out
	}
	equal := func(what string, a, b []string) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: scope %d differs: %s vs %s", what, i, a[i], b[i])
			}
		}
	}
	base := depdb.New()
	put(t, base, append(append([]deps.Record(nil), s1...), s2...)...)
	want := scopes(base)

	t.Run("insertion order", func(t *testing.T) {
		db := depdb.New()
		for i := len(s2) - 1; i >= 0; i-- {
			put(t, db, s2[i])
		}
		for i := len(s1) - 1; i >= 0; i-- {
			put(t, db, s1[i])
		}
		equal("reversed insertion", scopes(db), want)
	})

	t.Run("re-observation", func(t *testing.T) {
		db := depdb.New()
		put(t, db, s1...)
		put(t, db, s2...)
		put(t, db, s1...) // exact re-observations
		// A flap that returns.
		put(t, db, deps.NewHardware("s1", "NIC", "s1-nicB"), deps.NewHardware("s1", "NIC", "s1-nicA"))
		equal("re-observed", scopes(db), want)
	})

	t.Run("compaction timing", func(t *testing.T) {
		always, never := depdb.New(), depdb.New()
		always.CompactAlways()
		never.CompactNever()
		for _, db := range []*depdb.DB{always, never} {
			put(t, db, s2...)
			for i := 0; i < 5; i++ { // superseded history the two logs keep differently
				put(t, db, deps.NewHardware("s1", "NIC", "s1-nicB"), deps.NewSoftware("nginx", "s1", "libc6"))
			}
			put(t, db, s1...)
		}
		if always.LogLen() == never.LogLen() {
			t.Fatal("the two databases compacted alike; the case is vacuous")
		}
		equal("compacted at every supersession", scopes(always), want)
		equal("never compacted", scopes(never), want)
		// A snapshot's digests are frozen: later commits never move them.
		snap := always.Snapshot()
		before := snap.Scope([]string{"s1"}, nil)
		put(t, always, deps.NewHardware("s1", "NIC", "s1-nicC"))
		if snap.Scope([]string{"s1"}, nil) != before || always.Snapshot().Scope([]string{"s1"}, nil) == before {
			t.Fatal("a commit moved an older snapshot's digest, or not the new one's")
		}
	})

	t.Run("domain separation", func(t *testing.T) {
		for i, a := range depdb.HashDomains {
			for j, b := range depdb.HashDomains {
				if i != j && strings.HasPrefix(a, b) {
					t.Fatalf("hash domain %q is a prefix of %q: their preimages can coincide", b, a)
				}
			}
		}
		for _, db := range []*depdb.DB{depdb.New(), base} {
			fp := db.Fingerprint()
			for _, sc := range scopes(db) {
				if sc == fp {
					t.Fatalf("a scope digest equals the database fingerprint %s", fp)
				}
			}
		}
	})
}
