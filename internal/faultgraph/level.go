package faultgraph

import (
	"fmt"
	"sort"
)

// SourceSet is the flat dependency set of one data source (one redundant
// system): the component-set level of detail when Probs is empty, the
// fault-set level when probabilities are attached (§4.1.1, Fig. 4a/4b).
type SourceSet struct {
	// Source names the redundant system (e.g. "E1", "Rack5", "Cloud2").
	Source string
	// Components are the components whose individual failure fails Source.
	Components []string
	// Probs optionally assigns failure probabilities to components (and may
	// carry entries for components of other sources; extra keys are ignored).
	Probs map[string]float64
}

// FromSourceSets builds the two-level "AND-of-ORs" dependency graph of
// Fig. 4a/4b: the top event is a K-of-N gate over the sources (K = number of
// source failures that kill the deployment; pass len(sources) for plain
// redundancy, m−n+1 for an n-of-m deployment), and each source is an OR over
// its components. Shared components become shared basic events.
func FromSourceSets(top string, k int, sources []SourceSet) (*Graph, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("faultgraph: no sources")
	}
	b := NewBuilder()
	var sourceIDs []NodeID
	for _, s := range sources {
		if len(s.Components) == 0 {
			return nil, fmt.Errorf("faultgraph: source %q has no components", s.Source)
		}
		var compIDs []NodeID
		for _, c := range s.Components {
			prob := ProbUnknown
			if p, ok := s.Probs[c]; ok {
				prob = p
			}
			compIDs = append(compIDs, b.BasicProb(c, prob))
		}
		sourceIDs = append(sourceIDs, b.Gate(s.Source+" fails", OR, compIDs...))
	}
	var topID NodeID
	if k == len(sources) {
		topID = b.Gate(top, AND, sourceIDs...)
	} else {
		topID = b.GateK(top, k, sourceIDs...)
	}
	b.SetTop(topID)
	return b.Build()
}

// SourceSets downgrades a fault graph to the fault-set level of detail: for
// every child of the top event, the set of basic events that can contribute
// to its failure, with whatever probabilities are known. Downgrading loses
// the internal redundancy structure (that is the point: Fig. 4c → 4b).
func (g *Graph) SourceSets() []SourceSet {
	topChildren := g.nodes[g.top].Children
	out := make([]SourceSet, 0, len(topChildren))
	for _, c := range topChildren {
		basics := g.reachableBasics(c)
		s := SourceSet{Source: g.nodes[c].Label, Probs: make(map[string]float64)}
		for _, id := range basics {
			n := &g.nodes[id]
			s.Components = append(s.Components, n.Label)
			if n.HasProb() {
				s.Probs[n.Label] = n.Prob
			}
		}
		sort.Strings(s.Components)
		if len(s.Probs) == 0 {
			s.Probs = nil
		}
		out = append(out, s)
	}
	return out
}

func (g *Graph) reachableBasics(root NodeID) []NodeID {
	visited := make([]bool, len(g.nodes))
	stack := []NodeID{root}
	visited[root] = true
	var out []NodeID
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &g.nodes[id]
		if n.Gate == Basic {
			out = append(out, id)
			continue
		}
		for _, c := range n.Children {
			if !visited[c] {
				visited[c] = true
				stack = append(stack, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
