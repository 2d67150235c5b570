// Package psi implements P-SOP, the paper's private set intersection
// cardinality protocol based on commutative encryption ([58], §4.2.2): a ring
// of k ≥ 2 parties computes both |∩| and |∪| of their private multisets. The
// Kissner–Song baseline it is compared against lives in package ks.
//
// The protocol accounts every message so tests and benches can measure exact
// bandwidth. The ring runs over Party values: NewParty holds its dataset in
// this process, and the audit service's remote party steps a provider's HTTP
// proxy (the deployment of Fig. 5b), so the same Ring serves both.
//
// Threat model (§4.2.1): parties are honest but curious and do not collude.
package psi

import (
	"fmt"
	"sort"
)

// Stats records protocol costs.
type Stats struct {
	// BytesSent is the total application payload sent by all parties.
	BytesSent int64
	// PerParty is the payload each party sent, by party index.
	PerParty []int64
	// Messages counts protocol messages.
	Messages int
}

// Send records one message of bytes sent by party.
func (s *Stats) Send(party int, bytes int64) {
	for len(s.PerParty) <= party {
		s.PerParty = append(s.PerParty, 0)
	}
	s.PerParty[party] += bytes
	s.BytesSent += bytes
	s.Messages++
}

// Result is the outcome of a cardinality protocol.
type Result struct {
	// Intersection is the number of elements common to all parties
	// (multiset semantics for P-SOP, set semantics for KS).
	Intersection int
	// Union is the number of distinct elements across all parties;
	// -1 when the protocol does not compute it (KS).
	Union int
	// Stats are the measured protocol costs.
	Stats Stats
}

// Jaccard returns Intersection/Union, the similarity PIA ranks deployments
// by (§4.2.4). It errors when the protocol did not compute the union.
func (r *Result) Jaccard() (float64, error) {
	if r.Union < 0 {
		return 0, fmt.Errorf("psi: protocol did not compute the union cardinality")
	}
	if r.Union == 0 {
		return 0, nil
	}
	return float64(r.Intersection) / float64(r.Union), nil
}

// disambiguate makes multiset elements unique by appending an occurrence
// counter: an element e appearing t times becomes e‖1 … e‖t (§4.2.2,
// "any element e appearing t times in Si is represented as t unique
// elements"). The output is sorted for determinism; permutation happens
// inside the protocols.
func disambiguate(set []string) []string {
	counts := make(map[string]int, len(set))
	out := make([]string, 0, len(set))
	sorted := append([]string(nil), set...)
	sort.Strings(sorted)
	for _, e := range sorted {
		counts[e]++
		out = append(out, fmt.Sprintf("%s\x00%d", e, counts[e]))
	}
	return out
}

// CleartextCardinality computes the reference |∩| and |∪| with multiset
// semantics, for validating the private protocols in tests and for SIA-side
// component-set comparisons where no privacy is needed.
func CleartextCardinality(sets [][]string) (inter, union int, err error) {
	if len(sets) < 2 {
		return 0, 0, fmt.Errorf("psi: need at least two sets, got %d", len(sets))
	}
	counts := make([]map[string]int, len(sets))
	for i, s := range sets {
		counts[i] = make(map[string]int)
		for _, e := range s {
			counts[i][e]++
		}
	}
	all := make(map[string]struct{})
	for _, c := range counts {
		for e := range c {
			all[e] = struct{}{}
		}
	}
	for e := range all {
		mn := counts[0][e]
		mx := counts[0][e]
		for _, c := range counts[1:] {
			if c[e] < mn {
				mn = c[e]
			}
			if c[e] > mx {
				mx = c[e]
			}
		}
		inter += mn
		union += mx
	}
	return inter, union, nil
}
