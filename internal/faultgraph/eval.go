package faultgraph

import (
	"fmt"
	mbits "math/bits"
)

// Assignment maps every node ID to a failure state. Index by NodeID.
type Assignment []bool

// NewAssignment allocates an all-healthy assignment for graph g.
func (g *Graph) NewAssignment() Assignment { return make(Assignment, len(g.nodes)) }

// AcquireAssignment returns an all-healthy assignment from the graph's
// internal pool, avoiding an allocation per evaluation in hot paths. Pair
// with ReleaseAssignment.
func (g *Graph) AcquireAssignment() Assignment {
	if v := g.apool.Get(); v != nil {
		return v.(Assignment)
	}
	return g.NewAssignment()
}

// ReleaseAssignment clears a and returns it to the pool. The caller must not
// use a afterwards.
func (g *Graph) ReleaseAssignment(a Assignment) {
	for i := range a {
		a[i] = false
	}
	g.apool.Put(a)
}

// EvaluateBasicRanks returns whether the top event fails when exactly the
// basic events whose ranks (see BasicRank) are set in words have failed.
// It is the bitset fast path of Evaluate: no caller-managed Assignment, no
// allocation (a pooled scratch assignment is used internally).
func (g *Graph) EvaluateBasicRanks(words []uint64) bool {
	a := g.AcquireAssignment()
	for wi, w := range words {
		base := wi << 6
		for w != 0 {
			r := base + mbits.TrailingZeros64(w)
			w &= w - 1
			if r >= len(g.basics) {
				break // stray bits beyond the basic universe are ignored
			}
			a[g.basics[r]] = true
		}
	}
	failed := g.Evaluate(a)
	g.ReleaseAssignment(a)
	return failed
}

// Evaluate propagates the failure states of basic events bottom-up through
// the gates (§4.1.2, failure sampling semantics) and returns whether the top
// event fails. Non-basic entries of a are overwritten.
func (g *Graph) Evaluate(a Assignment) bool {
	if len(a) != len(g.nodes) {
		panic(fmt.Sprintf("faultgraph: assignment length %d, graph has %d nodes", len(a), len(g.nodes)))
	}
	for _, id := range g.topo {
		n := &g.nodes[id]
		if n.Gate == Basic {
			continue
		}
		failed := 0
		for _, c := range n.Children {
			if a[c] {
				failed++
				if failed >= n.K {
					break
				}
			}
		}
		a[id] = failed >= n.K
	}
	return a[g.top]
}

// EvaluateSet returns whether the top event fails when exactly the basic
// events in failed (by label) have failed. Unknown labels are ignored.
func (g *Graph) EvaluateSet(failed []string) bool {
	a := g.AcquireAssignment()
	for _, label := range failed {
		if id, ok := g.byLabel[label]; ok && g.nodes[id].Gate == Basic {
			a[id] = true
		}
	}
	res := g.Evaluate(a)
	g.ReleaseAssignment(a)
	return res
}

// TopProbExact computes the exact failure probability of the top event by
// enumerating all 2^b assignments of the b basic events, assuming basic
// events fail independently with their assigned probabilities. Every basic
// event must carry a probability. Exponential — intended for validating
// other estimators on small graphs (b ≤ ~20).
func (g *Graph) TopProbExact() (float64, error) {
	basics := g.BasicEvents()
	for _, id := range basics {
		if !g.nodes[id].HasProb() {
			return 0, fmt.Errorf("faultgraph: basic event %q has no probability", g.nodes[id].Label)
		}
	}
	if len(basics) > 26 {
		return 0, fmt.Errorf("faultgraph: TopProbExact limited to 26 basic events, graph has %d", len(basics))
	}
	a := g.NewAssignment()
	total := 0.0
	for mask := 0; mask < 1<<len(basics); mask++ {
		p := 1.0
		for i, id := range basics {
			fail := mask&(1<<i) != 0
			a[id] = fail
			if fail {
				p *= g.nodes[id].Prob
			} else {
				p *= 1 - g.nodes[id].Prob
			}
		}
		if p == 0 {
			continue
		}
		if g.Evaluate(a) {
			total += p
		}
	}
	return total, nil
}
