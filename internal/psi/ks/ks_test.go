package ks

import (
	"fmt"
	"math/rand"
	"testing"

	"indaas/internal/psi"
)

func TestKSMatchesCleartextIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		k := 2 + trial%3
		sets := make([][]string, k)
		for i := range sets {
			n := 4 + rng.Intn(8)
			seen := map[string]bool{}
			for j := 0; j < n; j++ {
				e := fmt.Sprintf("comp-%d", rng.Intn(10))
				if !seen[e] {
					seen[e] = true
					sets[i] = append(sets[i], e)
				}
			}
		}
		// Reference with set semantics.
		dedupSets := make([][]string, k)
		for i := range sets {
			dedupSets[i] = dedupe(sets[i])
		}
		wantInter, _, err := psi.CleartextCardinality(dedupSets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Bits: 512, BlindBits: 64}, sets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Intersection != wantInter {
			t.Errorf("trial %d (k=%d): KS intersection %d, want %d",
				trial, k, res.Intersection, wantInter)
		}
		if res.Union != -1 {
			t.Errorf("KS should not report a union, got %d", res.Union)
		}
		if _, err := res.Jaccard(); err == nil {
			t.Error("Jaccard over KS result should error")
		}
	}
}

func TestKSDisjointAndIdentical(t *testing.T) {
	disjoint := [][]string{{"a", "b"}, {"c", "d"}}
	res, err := Run(Config{Bits: 512, BlindBits: 64}, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersection != 0 {
		t.Errorf("disjoint intersection = %d", res.Intersection)
	}
	same := [][]string{{"x", "y", "z"}, {"z", "x", "y"}, {"y", "z", "x"}}
	res, err = Run(Config{Bits: 512, BlindBits: 64}, same)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersection != 3 {
		t.Errorf("identical 3-way intersection = %d, want 3", res.Intersection)
	}
}

func TestKSMultisetInputsDeduplicated(t *testing.T) {
	res, err := Run(Config{Bits: 512, BlindBits: 64}, [][]string{{"a", "a", "b"}, {"a", "b", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersection != 2 {
		t.Errorf("KS set-semantics intersection = %d, want 2", res.Intersection)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := Run(Config{Bits: 512, BlindBits: 64}, [][]string{{"a"}}); err == nil {
		t.Error("single party accepted")
	}
	if _, err := Run(Config{Bits: 512, BlindBits: 64}, [][]string{{"a"}, {}}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestKSStats(t *testing.T) {
	sets := [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"c", "d", "e"}}
	res, err := Run(Config{Bits: 512, BlindBits: 64}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesSent <= 0 {
		t.Error("no bandwidth recorded")
	}
	if len(res.Stats.PerParty) == 0 {
		t.Error("no per-party stats")
	}
}

func TestProtocolCostShape(t *testing.T) {
	// The core Fig. 8 qualitative claim at miniature scale: KS costs more
	// bandwidth per element than P-SOP as k grows, because it ships
	// 2n+1 double-width ciphertext coefficients around the ring.
	mk := func(n int, tag string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%d", tag, i)
		}
		return out
	}
	sets := [][]string{mk(20, "a"), mk(20, "b"), mk(20, "c"), mk(20, "d")}
	psop, err := psi.PSOP(psi.PSOPConfig{}, sets)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := Run(Config{Bits: 512, BlindBits: 64}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Stats.BytesSent <= psop.Stats.BytesSent {
		t.Errorf("expected KS bandwidth (%d) > P-SOP bandwidth (%d) at k=4",
			ks.Stats.BytesSent, psop.Stats.BytesSent)
	}
}
