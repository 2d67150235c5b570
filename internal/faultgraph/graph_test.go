package faultgraph

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// fig4ab builds the Fig. 4a/4b example: E1 depends on {A1,A2}, E2 on
// {A2,A3}; with probabilities it is the fault-set example of Fig. 4b.
func fig4ab(withProbs bool) (*Graph, error) {
	sets := []SourceSet{
		{Source: "E1", Components: []string{"A1", "A2"}},
		{Source: "E2", Components: []string{"A2", "A3"}},
	}
	if withProbs {
		probs := map[string]float64{"A1": 0.1, "A2": 0.2, "A3": 0.3}
		sets[0].Probs = probs
		sets[1].Probs = probs
	}
	return FromSourceSets("deployment fails", 2, sets)
}

func TestFromSourceSetsStructure(t *testing.T) {
	g, err := fig4ab(false)
	if err != nil {
		t.Fatalf("FromSourceSets: %v", err)
	}
	// 3 shared basics + 2 OR gates + 1 AND top.
	if g.Len() != 6 {
		t.Fatalf("Len = %d, want 6", g.Len())
	}
	top := g.Node(g.Top())
	if top.Gate != AND || len(top.Children) != 2 {
		t.Fatalf("top gate = %v/%d children", top.Gate, len(top.Children))
	}
	a2, ok := g.Lookup("A2")
	if !ok {
		t.Fatal("A2 missing")
	}
	// A2 must be shared: referenced by both OR gates.
	refs := 0
	for i := 0; i < g.Len(); i++ {
		for _, c := range g.Node(NodeID(i)).Children {
			if c == a2 {
				refs++
			}
		}
	}
	if refs != 2 {
		t.Errorf("A2 referenced %d times, want 2 (shared component)", refs)
	}
}

func TestEvaluateFig4a(t *testing.T) {
	g, err := fig4ab(false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		failed []string
		want   bool
	}{
		{nil, false},
		{[]string{"A1"}, false},
		{[]string{"A2"}, true}, // shared component alone kills both sources
		{[]string{"A3"}, false},
		{[]string{"A1", "A3"}, true},
		{[]string{"A1", "A2"}, true},
		{[]string{"A1", "A2", "A3"}, true},
		{[]string{"nonexistent"}, false},
	}
	for i, c := range cases {
		if got := g.EvaluateSet(c.failed); got != c.want {
			t.Errorf("case %d: EvaluateSet(%v) = %v, want %v", i, c.failed, got, c.want)
		}
	}
}

func TestTopProbExactFig4b(t *testing.T) {
	g, err := fig4ab(true)
	if err != nil {
		t.Fatal(err)
	}
	// The paper computes Pr(T) = 0.1*0.3 + 0.2 - 0.1*0.3*0.2 = 0.224 via
	// inclusion-exclusion over the minimal RGs {A2} and {A1,A3}.
	got, err := g.TopProbExact()
	if err != nil {
		t.Fatalf("TopProbExact: %v", err)
	}
	if math.Abs(got-0.224) > 1e-12 {
		t.Errorf("Pr(T) = %v, want 0.224", got)
	}
}

func TestTopProbExactRequiresProbs(t *testing.T) {
	g, err := fig4ab(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopProbExact(); err == nil {
		t.Error("TopProbExact accepted a graph without probabilities")
	}
}

func TestKofNGate(t *testing.T) {
	b := NewBuilder()
	var kids []NodeID
	for _, l := range []string{"a", "b", "c"} {
		kids = append(kids, b.Basic(l))
	}
	top := b.GateK("top", 2, kids...)
	b.SetTop(top)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		failed []string
		want   bool
	}{
		{nil, false},
		{[]string{"a"}, false},
		{[]string{"a", "b"}, true},
		{[]string{"a", "c"}, true},
		{[]string{"a", "b", "c"}, true},
	}
	for i, c := range cases {
		if got := g.EvaluateSet(c.failed); got != c.want {
			t.Errorf("case %d: 2-of-3 with %v = %v, want %v", i, c.failed, got, c.want)
		}
	}
}

func TestKofNProbMatchesExact(t *testing.T) {
	b := NewBuilder()
	var kids []NodeID
	probs := []float64{0.1, 0.4, 0.7, 0.25}
	for i, p := range probs {
		kids = append(kids, b.BasicProb(string(rune('a'+i)), p))
	}
	top := b.GateK("top", 3, kids...)
	b.SetTop(top)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.TopProbExact()
	if err != nil {
		t.Fatal(err)
	}
	// The children are independent: sum over every failure pattern with at
	// least 3 of the 4 failed.
	want := 0.0
	for mask := 0; mask < 1<<len(probs); mask++ {
		p, failed := 1.0, 0
		for i, q := range probs {
			if mask&(1<<i) != 0 {
				p, failed = p*q, failed+1
			} else {
				p *= 1 - q
			}
		}
		if failed >= 3 {
			want += p
		}
	}
	if math.Abs(exact-want) > 1e-12 {
		t.Errorf("3-of-4 exact %v, want %v", exact, want)
	}
}

// TestBuilderRefusesNaNProbability: a NaN probability is out of [0,1] too.
// Accepted, it would read as "no probability" to the exact analyses; the
// error names the event it was given for.
func TestBuilderRefusesNaNProbability(t *testing.T) {
	b := NewBuilder()
	b.BasicProb("disk-7", math.NaN())
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), `"disk-7"`) {
		t.Errorf("BasicProb(NaN) error = %v, want one naming disk-7", err)
	}
	b = NewBuilder()
	x := b.Basic("x")
	b.GateProb("rack-2", OR, math.NaN(), x)
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), `"rack-2"`) {
		t.Errorf("GateProb(NaN) error = %v, want one naming rack-2", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("empty label", func(t *testing.T) {
		b := NewBuilder()
		b.Basic("")
		if b.Err() == nil {
			t.Error("accepted empty label")
		}
	})
	t.Run("bad probability", func(t *testing.T) {
		b := NewBuilder()
		b.BasicProb("x", 1.5)
		if b.Err() == nil {
			t.Error("accepted probability > 1")
		}
	})
	t.Run("conflicting probabilities", func(t *testing.T) {
		b := NewBuilder()
		b.BasicProb("x", 0.1)
		b.BasicProb("x", 0.2)
		if b.Err() == nil {
			t.Error("accepted conflicting probabilities")
		}
	})
	t.Run("unknown merges with known", func(t *testing.T) {
		b := NewBuilder()
		b.BasicProb("x", 0.1)
		id := b.Basic("x")
		y := b.Basic("y")
		b.SetTop(b.Gate("t", OR, id, y))
		g, err := b.Build()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if n := g.Node(id); n.Prob != 0.1 {
			t.Errorf("probability lost on re-add: %v", n.Prob)
		}
	})
	t.Run("duplicate gate label", func(t *testing.T) {
		b := NewBuilder()
		x := b.Basic("x")
		b.Gate("g", OR, x)
		b.Gate("g", OR, x)
		if b.Err() == nil {
			t.Error("accepted duplicate gate label")
		}
	})
	t.Run("label reuse basic/gate", func(t *testing.T) {
		b := NewBuilder()
		x := b.Basic("x")
		b.Gate("x2", OR, x)
		b.Basic("x2")
		if b.Err() == nil {
			t.Error("accepted basic with a gate's label")
		}
	})
	t.Run("gate without children", func(t *testing.T) {
		b := NewBuilder()
		b.Gate("g", AND)
		if b.Err() == nil {
			t.Error("accepted childless gate")
		}
	})
	t.Run("unknown child", func(t *testing.T) {
		b := NewBuilder()
		b.Gate("g", AND, NodeID(99))
		if b.Err() == nil {
			t.Error("accepted unknown child")
		}
	})
	t.Run("duplicate child", func(t *testing.T) {
		b := NewBuilder()
		x := b.Basic("x")
		b.Gate("g", AND, x, x)
		if b.Err() == nil {
			t.Error("accepted duplicate child")
		}
	})
	t.Run("K out of range", func(t *testing.T) {
		b := NewBuilder()
		x := b.Basic("x")
		y := b.Basic("y")
		b.GateK("g", 3, x, y)
		if b.Err() == nil {
			t.Error("accepted K > N")
		}
		b2 := NewBuilder()
		b2.GateK("g", 0, b2.Basic("x"))
		if b2.Err() == nil {
			t.Error("accepted K = 0")
		}
	})
	t.Run("top not set", func(t *testing.T) {
		b := NewBuilder()
		b.Basic("x")
		if _, err := b.Build(); err == nil {
			t.Error("Build without SetTop succeeded")
		}
	})
	t.Run("basic top", func(t *testing.T) {
		b := NewBuilder()
		b.SetTop(b.Basic("x"))
		if _, err := b.Build(); err == nil {
			t.Error("Build with basic top succeeded")
		}
	})
	t.Run("SetTop unknown", func(t *testing.T) {
		b := NewBuilder()
		b.SetTop(NodeID(5))
		if b.Err() == nil {
			t.Error("SetTop accepted unknown node")
		}
	})
	t.Run("errors sticky", func(t *testing.T) {
		b := NewBuilder()
		b.Basic("")
		first := b.Err()
		b.Basic("ok")
		if b.Err() != first {
			t.Error("error not sticky")
		}
		if _, err := b.Build(); err != first {
			t.Error("Build did not return first error")
		}
	})
}

func TestTopoOrder(t *testing.T) {
	g, err := fig4ab(false)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range g.TopoOrder() {
		pos[id] = i
	}
	if len(pos) != g.Len() {
		t.Fatalf("topo order covers %d of %d nodes", len(pos), g.Len())
	}
	for i := 0; i < g.Len(); i++ {
		n := g.Node(NodeID(i))
		for _, c := range n.Children {
			if pos[c] >= pos[n.ID] {
				t.Errorf("child %q not before parent %q", g.Node(c).Label, n.Label)
			}
		}
	}
	if g.TopoOrder()[g.Len()-1] != g.Top() {
		t.Error("top event not last in topo order")
	}
}

func TestSourceSetsDowngrade(t *testing.T) {
	// Build a deep fault graph and downgrade to fault sets.
	b := NewBuilder()
	tor := b.BasicProb("ToR1", 0.1)
	core1 := b.BasicProb("Core1", 0.1)
	core2 := b.BasicProb("Core2", 0.1)
	path1 := b.Gate("S1 path1", OR, tor, core1)
	path2 := b.Gate("S1 path2", OR, tor, core2)
	net := b.Gate("S1 network", AND, path1, path2)
	disk := b.BasicProb("S1-disk", 0.05)
	s1 := b.Gate("S1", OR, net, disk)
	s2disk := b.BasicProb("S2-disk", 0.05)
	s2 := b.Gate("S2", OR, s2disk)
	top := b.Gate("R", AND, s1, s2)
	b.SetTop(top)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sets := g.SourceSets()
	if len(sets) != 2 {
		t.Fatalf("SourceSets = %d, want 2", len(sets))
	}
	if sets[0].Source != "S1" || sets[1].Source != "S2" {
		t.Fatalf("source names: %v, %v", sets[0].Source, sets[1].Source)
	}
	wantS1 := []string{"Core1", "Core2", "S1-disk", "ToR1"}
	if !reflect.DeepEqual(sets[0].Components, wantS1) {
		t.Errorf("S1 components = %v, want %v", sets[0].Components, wantS1)
	}
	if sets[0].Probs["ToR1"] != 0.1 || sets[0].Probs["S1-disk"] != 0.05 {
		t.Errorf("S1 probs = %v", sets[0].Probs)
	}
	if !reflect.DeepEqual(sets[1].Components, []string{"S2-disk"}) {
		t.Errorf("S2 components = %v", sets[1].Components)
	}
}

func TestFromSourceSetsErrors(t *testing.T) {
	if _, err := FromSourceSets("t", 1, nil); err == nil {
		t.Error("accepted zero sources")
	}
	if _, err := FromSourceSets("t", 1, []SourceSet{{Source: "E1"}}); err == nil {
		t.Error("accepted source without components")
	}
}

func TestFromSourceSetsKofN(t *testing.T) {
	// 2-of-3 redundancy deployment: n=2 of m=3 needed, fails when 2 fail.
	sets := []SourceSet{
		{Source: "E1", Components: []string{"A"}},
		{Source: "E2", Components: []string{"B"}},
		{Source: "E3", Components: []string{"C"}},
	}
	g, err := FromSourceSets("t", 2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if g.EvaluateSet([]string{"A"}) {
		t.Error("one failure should not fire 2-of-3")
	}
	if !g.EvaluateSet([]string{"A", "C"}) {
		t.Error("two failures should fire 2-of-3")
	}
}

// randomGraph builds a random DAG fault graph with b basic events and g
// gates, returning it and a straightforward recursive evaluator to check
// Evaluate against.
func randomGraph(r *rand.Rand, nb, ng int) *Graph {
	b := NewBuilder()
	var ids []NodeID
	for i := 0; i < nb; i++ {
		ids = append(ids, b.BasicProb(string(rune('a'+i)), r.Float64()))
	}
	for i := 0; i < ng; i++ {
		nkids := 1 + r.Intn(min(4, len(ids)))
		perm := r.Perm(len(ids))[:nkids]
		kids := make([]NodeID, nkids)
		for j, p := range perm {
			kids[j] = ids[p]
		}
		var id NodeID
		switch r.Intn(3) {
		case 0:
			id = b.Gate(string(rune('A'+i)), AND, kids...)
		case 1:
			id = b.Gate(string(rune('A'+i)), OR, kids...)
		default:
			id = b.GateK(string(rune('A'+i)), 1+r.Intn(nkids), kids...)
		}
		ids = append(ids, id)
	}
	top := b.Gate("TOP", OR, ids[len(ids)-1])
	b.SetTop(top)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func recursiveEval(g *Graph, id NodeID, a Assignment, memo map[NodeID]int) bool {
	if v, ok := memo[id]; ok {
		return v == 1
	}
	n := g.Node(id)
	var out bool
	if n.Gate == Basic {
		out = a[id]
	} else {
		failed := 0
		for _, c := range n.Children {
			if recursiveEval(g, c, a, memo) {
				failed++
			}
		}
		out = failed >= n.K
	}
	v := 0
	if out {
		v = 1
	}
	memo[id] = v
	return out
}

func TestEvaluateMatchesRecursiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(8), 1+r.Intn(10))
		for trial := 0; trial < 10; trial++ {
			a := g.NewAssignment()
			ref := g.NewAssignment()
			for _, id := range g.BasicEvents() {
				v := r.Intn(2) == 0
				a[id] = v
				ref[id] = v
			}
			want := recursiveEval(g, g.Top(), ref, map[NodeID]int{})
			if got := g.Evaluate(a); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTopProbExactMatchesMonteCarlo(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 8, 6)
	exact, err := g.TopProbExact()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200000
	hits := 0
	a := g.NewAssignment()
	for i := 0; i < rounds; i++ {
		for _, id := range g.BasicEvents() {
			a[id] = r.Float64() < g.Node(id).Prob
		}
		if g.Evaluate(a) {
			hits++
		}
	}
	mc := float64(hits) / rounds
	if math.Abs(mc-exact) > 0.01 {
		t.Errorf("Monte-Carlo %v vs exact %v", mc, exact)
	}
}
