package psi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"indaas/internal/crypto/commutative"
	"indaas/internal/deps"
)

func TestCleartextCardinality(t *testing.T) {
	cases := []struct {
		sets         [][]string
		inter, union int
	}{
		{[][]string{{"a", "b"}, {"b", "c"}}, 1, 3},
		{[][]string{{"a"}, {"b"}}, 0, 2},
		{[][]string{{"a", "a", "b"}, {"a", "a", "c"}}, 2, 4},   // multiset: two a's shared
		{[][]string{{"a", "a"}, {"a"}}, 1, 2},                  // min/max counts
		{[][]string{{"x", "y"}, {"x", "y"}, {"x", "z"}}, 1, 3}, // 3-way
	}
	for i, c := range cases {
		inter, union, err := CleartextCardinality(c.sets)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if inter != c.inter || union != c.union {
			t.Errorf("case %d: got (%d,%d), want (%d,%d)", i, inter, union, c.inter, c.union)
		}
	}
	if _, _, err := CleartextCardinality([][]string{{"a"}}); err == nil {
		t.Error("single set accepted")
	}
}

func TestDisambiguate(t *testing.T) {
	got := disambiguate([]string{"b", "a", "b"})
	want := []string{"a\x001", "b\x001", "b\x002"}
	if len(got) != len(want) {
		t.Fatalf("disambiguate = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("disambiguate[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPSOPMatchesCleartext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		k := 2 + trial%4
		sets := make([][]string, k)
		for i := range sets {
			n := 5 + rng.Intn(15)
			for j := 0; j < n; j++ {
				// Overlapping universes with duplicates.
				sets[i] = append(sets[i], fmt.Sprintf("comp-%d", rng.Intn(12)))
			}
		}
		wantInter, wantUnion, err := CleartextCardinality(sets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PSOP(PSOPConfig{Workers: trial % 3}, sets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Intersection != wantInter || res.Union != wantUnion {
			t.Errorf("trial %d (k=%d): P-SOP (%d,%d), cleartext (%d,%d)",
				trial, k, res.Intersection, res.Union, wantInter, wantUnion)
		}
		j, err := res.Jaccard()
		if err != nil {
			t.Fatal(err)
		}
		if wantUnion > 0 && j != float64(wantInter)/float64(wantUnion) {
			t.Errorf("trial %d: Jaccard %v", trial, j)
		}
	}
}

func TestPSOPJaccardMatchesPlainJaccard(t *testing.T) {
	a := []string{"pkg:libc6=2.19", "pkg:libssl=1.0.1", "router:10.0.0.1", "c1/private"}
	b := []string{"pkg:libc6=2.19", "pkg:libssl=1.0.1", "c2/other"}
	res, err := PSOP(PSOPConfig{}, [][]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Jaccard()
	if err != nil {
		t.Fatal(err)
	}
	want := deps.Jaccard(deps.NewComponentSet(a...), deps.NewComponentSet(b...))
	if got != want {
		t.Errorf("P-SOP Jaccard %v, cleartext %v", got, want)
	}
}

func TestPSOPErrors(t *testing.T) {
	if _, err := PSOP(PSOPConfig{}, [][]string{{"a"}}); err == nil {
		t.Error("single party accepted")
	}
	if _, err := PSOP(PSOPConfig{}, [][]string{{"a"}, {}}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestPSOPStats(t *testing.T) {
	sets := [][]string{
		make([]string, 10), make([]string, 10), make([]string, 10),
	}
	for i := range sets {
		for j := range sets[i] {
			sets[i][j] = fmt.Sprintf("p%d-e%d", i, j%7)
		}
	}
	res, err := PSOP(PSOPConfig{}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesSent <= 0 || res.Stats.Messages <= 0 {
		t.Errorf("stats not recorded: %+v", res.Stats)
	}
	if len(res.Stats.PerParty) != 3 {
		t.Errorf("per-party stats for %d parties", len(res.Stats.PerParty))
	}
	// Ring phase: each dataset of 10 elements × 32 bytes (one X25519 point)
	// × (k−1)=2 hops, share phase: ×(k−1) more. Total = 10·32·(2·3 + 3·2)
	// = 3840.
	want := int64(10 * 32 * (2*3 + 2*3))
	if res.Stats.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d", res.Stats.BytesSent, want)
	}
}

// countingParty wraps a party, counting its steps and failing on demand.
type countingParty struct {
	Party
	own, reencrypt int
	fail           error
}

func (p *countingParty) Own(ctx context.Context) ([]commutative.Point, error) {
	p.own++
	return p.Party.Own(ctx)
}

func (p *countingParty) Reencrypt(ctx context.Context, in []commutative.Point) ([]commutative.Point, error) {
	p.reencrypt++
	if p.fail != nil {
		return nil, p.fail
	}
	return p.Party.Reencrypt(ctx, in)
}

// TestRingOverParties: Ring asks each of k parties for one own-set step and
// k−1 re-encryptions, counts what PSOP counts over the same sets, and names
// the party whose step failed.
func TestRingOverParties(t *testing.T) {
	sets := [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"c", "d", "e", "e"}}
	parties := make([]*countingParty, len(sets))
	ring := make([]Party, len(sets))
	for i, s := range sets {
		parties[i] = &countingParty{Party: NewParty(s, 2)}
		ring[i] = parties[i]
	}
	res, err := Ring(context.Background(), ring)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PSOP(PSOPConfig{}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersection != want.Intersection || res.Union != want.Union || res.Stats.BytesSent != want.Stats.BytesSent {
		t.Fatalf("Ring = %+v, PSOP = %+v", res, want)
	}
	for i, p := range parties {
		if p.own != 1 || p.reencrypt != len(sets)-1 {
			t.Errorf("party %d took %d own-set steps and %d re-encryptions, want 1 and %d", i, p.own, p.reencrypt, len(sets)-1)
		}
	}

	failing := &countingParty{Party: NewParty(sets[1], 1), fail: errors.New("proxy gone")}
	_, err = Ring(context.Background(), []Party{NewParty(sets[0], 1), failing})
	if err == nil || !strings.Contains(err.Error(), "party 1: proxy gone") {
		t.Fatalf("a failing party's error = %v, want it named", err)
	}
	if _, err := Ring(context.Background(), ring[:1]); err == nil {
		t.Fatal("a ring of one party ran")
	}
}

// TestPartyKeysAreFresh: two parties over one set hold different keys, so
// their encrypted sets differ, while re-encrypting each other's output
// yields the same doubly-encrypted set (the cipher commutes).
func TestPartyKeysAreFresh(t *testing.T) {
	ctx := context.Background()
	set := []string{"pkg:a", "pkg:b"}
	a, b := NewParty(set, 1), NewParty(set, 1)
	ea, err := a.Own(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Own(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[commutative.Point]bool{}
	for _, p := range ea {
		seen[p] = true
	}
	for _, p := range eb {
		if seen[p] {
			t.Fatal("two parties encrypted an element alike: their keys are not fresh")
		}
	}
	ab, err := b.Reencrypt(ctx, ea)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := a.Reencrypt(ctx, eb)
	if err != nil {
		t.Fatal(err)
	}
	if inter, union := countCiphertexts([][]commutative.Point{ab, ba}); inter != 2 || union != 2 {
		t.Fatalf("doubly-encrypted sets share %d of %d points, want 2 of 2", inter, union)
	}
}
