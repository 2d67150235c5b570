// Package faultgraph implements INDaaS's dependency graph representation
// (§4.1.1), an adaptation of classic fault trees [52,60] to directed acyclic
// graphs supporting three levels of detail:
//
//   - component-set: a two-level AND-of-ORs over shared components (Fig. 4a);
//   - fault-set: component-sets whose events carry failure probabilities
//     (Fig. 4b);
//   - fault graph: arbitrary DAGs of failure events joined by AND / OR /
//     K-of-N gates, optionally weighted (Fig. 4c).
//
// Nodes are failure events. Basic events (no children) model component
// failures; the root is the top event (failure of the whole redundancy
// deployment R); everything in between is an intermediate event. A node
// "fails" when its gate, applied to its children's failure states, fires.
package faultgraph

import (
	"fmt"
	"sort"
	"sync"
)

// Gate is the logic connecting an event to its child events.
type Gate int

const (
	// Basic marks a leaf event (component failure); it has no children.
	Basic Gate = iota
	// AND fires when every child fails — redundancy: all replicas must die.
	AND
	// OR fires when any child fails — a chain of single points of failure.
	OR
	// KofN fires when at least K children fail. AND is KofN(K=N), OR is
	// KofN(K=1). An n-of-m redundant deployment (service survives with any n
	// of m replicas, n ≤ m) fails when m−n+1 replicas fail, so it is modelled
	// as KofN with K = m−n+1.
	KofN
)

// String returns the gate's conventional name.
func (g Gate) String() string {
	switch g {
	case Basic:
		return "BASIC"
	case AND:
		return "AND"
	case OR:
		return "OR"
	case KofN:
		return "K-of-N"
	default:
		return fmt.Sprintf("Gate(%d)", int(g))
	}
}

// NodeID identifies a node within one Graph; IDs are dense indices.
type NodeID int

// ProbUnknown is the Prob value of an event without failure-likelihood
// information (component-set level of detail).
const ProbUnknown = -1.0

// Node is one failure event.
type Node struct {
	ID       NodeID
	Label    string // unique within the graph; component or event name
	Gate     Gate
	K        int      // threshold, used only by KofN
	Children []NodeID // child events, empty iff Gate == Basic
	Prob     float64  // failure probability in [0,1], or ProbUnknown
}

// HasProb reports whether the event carries failure-likelihood information.
func (n *Node) HasProb() bool { return n.Prob >= 0 }

// Graph is an immutable fault graph. Build one with a Builder.
type Graph struct {
	nodes   []Node
	byLabel map[string]NodeID
	top     NodeID
	topo    []NodeID // children-before-parents order
	basics  []NodeID // basic events in ascending ID order
	rank    []int32  // NodeID → dense basic-event rank, -1 for gates
	apool   sync.Pool
}

// Top returns the top event's ID.
func (g *Graph) Top() NodeID { return g.top }

// Len returns the number of events in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID. The returned pointer aliases the
// graph's storage and must be treated as read-only.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Lookup returns the ID of the event with the given label.
func (g *Graph) Lookup(label string) (NodeID, bool) {
	id, ok := g.byLabel[label]
	return id, ok
}

// BasicEvents returns the IDs of all basic events in ascending order.
func (g *Graph) BasicEvents() []NodeID {
	return append([]NodeID(nil), g.basics...)
}

// NumBasics returns the number of basic events.
func (g *Graph) NumBasics() int { return len(g.basics) }

// BasicRank returns the dense rank of a basic event: basics are numbered
// 0..NumBasics()-1 in ascending ID order, giving bitset representations of
// event sets a compact universe. Returns -1 for gate events.
func (g *Graph) BasicRank(id NodeID) int { return int(g.rank[id]) }

// BasicAt returns the basic event with the given rank. Because ranks follow
// ascending ID order, iterating ranks 0..NumBasics()-1 yields IDs ascending.
func (g *Graph) BasicAt(rank int) NodeID { return g.basics[rank] }

// TopoOrder returns every event reachable from the top in an order where
// children precede parents. The slice is shared; do not modify.
func (g *Graph) TopoOrder() []NodeID { return g.topo }

// Labels maps a list of node IDs to their labels.
func (g *Graph) Labels(ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id].Label
	}
	return out
}

// SortedLabels maps node IDs to labels and sorts them, for stable output.
func (g *Graph) SortedLabels(ids []NodeID) []string {
	out := g.Labels(ids)
	sort.Strings(out)
	return out
}

// Builder incrementally assembles a Graph. Basic events are deduplicated by
// label so that shared components (the same switch feeding two racks) become
// shared subtrees — the property independence auditing exists to detect.
type Builder struct {
	nodes   []Node
	byLabel map[string]NodeID
	top     NodeID
	topSet  bool
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byLabel: make(map[string]NodeID)}
}

func (b *Builder) fail(format string, args ...any) NodeID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return -1
}

// Basic adds (or returns the existing) basic event with the given label and
// no probability information.
func (b *Builder) Basic(label string) NodeID {
	return b.BasicProb(label, ProbUnknown)
}

// BasicProb adds (or returns the existing) basic event with the given label
// and failure probability. Re-adding an existing basic event with a
// different, known probability is an error; re-adding with ProbUnknown
// leaves the stored probability untouched.
func (b *Builder) BasicProb(label string, prob float64) NodeID {
	if b.err != nil {
		return -1
	}
	if label == "" {
		return b.fail("faultgraph: basic event with empty label")
	}
	if prob != ProbUnknown && !(prob >= 0 && prob <= 1) { // NaN fails both comparisons
		return b.fail("faultgraph: event %q probability %v out of [0,1]", label, prob)
	}
	if id, ok := b.byLabel[label]; ok {
		n := &b.nodes[id]
		if n.Gate != Basic {
			return b.fail("faultgraph: label %q reused for basic and gate events", label)
		}
		if prob != ProbUnknown {
			if n.HasProb() && n.Prob != prob {
				return b.fail("faultgraph: basic event %q given conflicting probabilities %v and %v", label, n.Prob, prob)
			}
			n.Prob = prob
		}
		return id
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Label: label, Gate: Basic, Prob: prob})
	b.byLabel[label] = id
	return id
}

// Gate adds an intermediate (or top) event with the given gate over children.
func (b *Builder) Gate(label string, gate Gate, children ...NodeID) NodeID {
	return b.gate(label, gate, 0, ProbUnknown, children)
}

// GateK adds a K-of-N event over children.
func (b *Builder) GateK(label string, k int, children ...NodeID) NodeID {
	return b.gate(label, KofN, k, ProbUnknown, children)
}

// GateProb adds a gate event with an explicitly assigned probability (the
// paper allows weights on intermediate events; analyses that compute
// probabilities bottom-up ignore such overrides unless stated otherwise).
func (b *Builder) GateProb(label string, gate Gate, prob float64, children ...NodeID) NodeID {
	return b.gate(label, gate, 0, prob, children)
}

func (b *Builder) gate(label string, gate Gate, k int, prob float64, children []NodeID) NodeID {
	if b.err != nil {
		return -1
	}
	if label == "" {
		return b.fail("faultgraph: gate event with empty label")
	}
	if _, ok := b.byLabel[label]; ok {
		return b.fail("faultgraph: duplicate event label %q", label)
	}
	if gate != AND && gate != OR && gate != KofN {
		return b.fail("faultgraph: event %q: invalid gate %v", label, gate)
	}
	if len(children) == 0 {
		return b.fail("faultgraph: gate event %q has no children", label)
	}
	switch gate {
	case KofN:
		if k < 1 || k > len(children) {
			return b.fail("faultgraph: event %q: K=%d out of range 1..%d", label, k, len(children))
		}
	case AND:
		k = len(children)
	case OR:
		k = 1
	}
	seen := make(map[NodeID]bool, len(children))
	for _, c := range children {
		if c < 0 || int(c) >= len(b.nodes) {
			return b.fail("faultgraph: event %q: unknown child %d", label, c)
		}
		if seen[c] {
			return b.fail("faultgraph: event %q: duplicate child %q", label, b.nodes[c].Label)
		}
		seen[c] = true
	}
	if prob != ProbUnknown && !(prob >= 0 && prob <= 1) { // NaN fails both comparisons
		return b.fail("faultgraph: event %q probability %v out of [0,1]", label, prob)
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Label: label, Gate: gate, K: k, Children: append([]NodeID(nil), children...), Prob: prob})
	b.byLabel[label] = id
	return id
}

// SetTop designates the top event.
func (b *Builder) SetTop(id NodeID) {
	if b.err != nil {
		return
	}
	if id < 0 || int(id) >= len(b.nodes) {
		b.fail("faultgraph: SetTop: unknown node %d", id)
		return
	}
	b.top = id
	b.topSet = true
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

// Build validates the graph (top set, acyclic — guaranteed by construction
// since children must pre-exist — and top reachability) and freezes it.
// The Builder must not be used afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.topSet {
		return nil, fmt.Errorf("faultgraph: top event not set")
	}
	g := &Graph{nodes: b.nodes, byLabel: b.byLabel, top: b.top}
	g.topo = topoFrom(g, g.top)
	if g.nodes[g.top].Gate == Basic {
		return nil, fmt.Errorf("faultgraph: top event %q is a basic event", g.nodes[g.top].Label)
	}
	g.rank = make([]int32, len(g.nodes))
	for i := range g.nodes {
		if g.nodes[i].Gate == Basic {
			g.rank[i] = int32(len(g.basics))
			g.basics = append(g.basics, NodeID(i))
		} else {
			g.rank[i] = -1
		}
	}
	return g, nil
}

// topoFrom returns the events reachable from root in children-before-parents
// order. Construction guarantees acyclicity (a gate can only reference nodes
// created before it), so an iterative post-order DFS suffices.
func topoFrom(g *Graph, root NodeID) []NodeID {
	visited := make([]bool, len(g.nodes))
	var order []NodeID
	type frame struct {
		id    NodeID
		child int
	}
	stack := []frame{{id: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		children := g.nodes[f.id].Children
		if f.child < len(children) {
			c := children[f.child]
			f.child++
			if !visited[c] {
				visited[c] = true
				stack = append(stack, frame{id: c})
			}
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	return order
}
