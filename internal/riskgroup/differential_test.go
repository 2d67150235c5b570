package riskgroup

// Differential tests: the bitset-backed engine (bitfamily.go) must produce
// exactly the families the original sorted-slice implementation produced.
// The reference implementations below are verbatim ports of the pre-bitset
// code paths, kept test-only.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"indaas/internal/faultgraph"
)

// refSubsetOf reports whether rg ⊆ other, both sorted (reference impl).
func refSubsetOf(rg, other RG) bool {
	if len(rg) > len(other) {
		return false
	}
	i := 0
	for _, id := range rg {
		for i < len(other) && other[i] < id {
			i++
		}
		if i >= len(other) || other[i] != id {
			return false
		}
		i++
	}
	return true
}

// refMinimize is the original slice-based absorption routine: dedup by
// string key, sort by size, counting-based absorption over posting lists.
func refMinimize(sets []RG) []RG {
	if len(sets) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(sets))
	uniq := make([]RG, 0, len(sets))
	for _, s := range sets {
		k := s.key()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		uniq = append(uniq, s)
	}
	sortFamily(uniq)
	var kept []RG
	for _, s := range uniq {
		absorbed := false
		for _, t := range kept {
			if len(t) < len(s) && refSubsetOf(t, s) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, s)
		}
	}
	return kept
}

// randomFamily builds a random family of RGs over a small universe.
func randomFamily(r *rand.Rand) []RG {
	n := r.Intn(30)
	sets := make([]RG, 0, n)
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(6)
		members := map[faultgraph.NodeID]bool{}
		for len(members) < size {
			members[faultgraph.NodeID(r.Intn(12))] = true
		}
		rg := make(RG, 0, size)
		for id := range members {
			rg = append(rg, id)
		}
		sort.Slice(rg, func(a, b int) bool { return rg[a] < rg[b] })
		sets = append(sets, rg)
	}
	return sets
}

func TestMinimizeMatchesSliceReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		sets := randomFamily(r)
		got := Minimize(sets)
		want := refMinimize(sets)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("family %d: bitset Minimize = %v, slice reference = %v (input %v)", i, got, want, sets)
		}
	}
}

// TestMinimalRGsMatchesBruteForceWide re-checks the bitset MinimalRGs
// against subset enumeration on randomized DAGs wider than the base test,
// exercising multi-word bitsets (>64 basic events universes are covered by
// TestMinimizeMultiWord below; DAG building here stays small for brute
// force tractability).
func TestMinimalRGsMatchesBruteForceWide(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(8), 1+r.Intn(8))
		exact, err := MinimalRGs(g, MinimalOptions{})
		if err != nil {
			return false
		}
		brute := BruteForceMinimalRGs(g, len(g.BasicEvents()))
		return reflect.DeepEqual(exact, brute)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMinimizeMultiWord exercises universes beyond one 64-bit word.
func TestMinimizeMultiWord(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		n := 5 + r.Intn(40)
		sets := make([]RG, 0, n)
		for j := 0; j < n; j++ {
			size := 1 + r.Intn(5)
			members := map[faultgraph.NodeID]bool{}
			for len(members) < size {
				members[faultgraph.NodeID(r.Intn(200))] = true // multi-word universe
			}
			rg := make(RG, 0, size)
			for id := range members {
				rg = append(rg, id)
			}
			sort.Slice(rg, func(a, b int) bool { return rg[a] < rg[b] })
			sets = append(sets, rg)
		}
		got := Minimize(sets)
		want := refMinimize(sets)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: bitset Minimize = %v, reference = %v", i, got, want)
		}
	}
}

// TestSamplerWorkersConverge: on small graphs with plenty of rounds, one
// worker and four land on byte-identical families, and both equal the exact
// algorithm's (complete) minimal-RG family.
func TestSamplerWorkersConverge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		g := randomDAG(r, 2+r.Intn(6), 1+r.Intn(6))
		exact, err := MinimalRGs(g, MinimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := Sampler{Rounds: 6000, Shrink: true, Seed: 5, Workers: 1}.Sample(g)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Sampler{Rounds: 6000, Shrink: true, Seed: 5, Workers: 4}.Sample(g)
		if err != nil {
			t.Fatal(err)
		}
		if familyBytes(single) != familyBytes(parallel) {
			t.Errorf("graph %d: one worker found %v, four %v", i, labelsOf(g, single), labelsOf(g, parallel))
		}
		if !reflect.DeepEqual(single, exact) {
			t.Errorf("graph %d: single-threaded sampler %v != exact %v", i, labelsOf(g, single), labelsOf(g, exact))
		}
		if !reflect.DeepEqual(parallel, exact) {
			t.Errorf("graph %d: parallel sampler %v != exact %v", i, labelsOf(g, parallel), labelsOf(g, exact))
		}
	}
}

// TestSamplerParallelDeterministic: a fixed Seed must yield identical
// families run-to-run, including with more workers than CPUs.
func TestSamplerParallelDeterministic(t *testing.T) {
	g := fig4cGraph(t)
	for _, workers := range []int{1, 2, 3, 8} {
		a, err := Sampler{Rounds: 500, Shrink: true, Seed: 9, Workers: workers}.Sample(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sampler{Rounds: 500, Shrink: true, Seed: 9, Workers: workers}.Sample(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: same (Seed, Workers) produced different families", workers)
		}
	}
}

// TestSamplerDetectionMonotoneInRounds: for fixed (Seed, Workers), growing
// the round count only extends each worker's sample stream, so the detected
// family must be a superset of the smaller run's (the property Fig. 7's
// Verify relies on).
func TestSamplerDetectionMonotoneInRounds(t *testing.T) {
	g := fig4cGraph(t)
	for _, workers := range []int{1, 3} {
		var prev []RG
		for _, rounds := range []int{50, 200, 800} {
			fam, err := Sampler{Rounds: rounds, Shrink: true, Seed: 3, Workers: workers}.Sample(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, rg := range prev {
				found := false
				for _, s := range fam {
					if reflect.DeepEqual(rg, s) {
						found = true
						break
					}
				}
				// A previously detected RG may only disappear if something
				// smaller absorbed it in the bigger run's Minimize.
				if !found {
					absorbed := false
					for _, s := range fam {
						if refSubsetOf(s, rg) {
							absorbed = true
							break
						}
					}
					if !absorbed {
						t.Errorf("workers=%d: RG %v detected at fewer rounds lost at %d rounds", workers, rg, rounds)
					}
				}
			}
			prev = fam
		}
	}
}

// TestSamplerWorkersBeyondRounds: more workers than rounds must not hang or
// misbehave.
func TestSamplerWorkersBeyondRounds(t *testing.T) {
	g := fig4cGraph(t)
	fam, err := Sampler{Rounds: 3, Shrink: true, Seed: 1, Workers: 16}.Sample(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range fam {
		if !IsMinimalRG(g, rg) {
			t.Errorf("%v not minimal", Labels(g, rg))
		}
	}
}

// fig4cGraph rebuilds the Fig. 4c graph without the testing.T helper
// signature used by the main test file.
func fig4cGraph(t *testing.T) *faultgraph.Graph {
	t.Helper()
	return fig4c(t)
}

// TestEvaluatorMatchesEvaluate cross-checks the incremental evaluator
// against Graph.Evaluate over random flip sequences.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		g := randomDAG(r, 2+r.Intn(7), 1+r.Intn(7))
		ev := g.NewEvaluator()
		a := g.NewAssignment()
		basics := g.BasicEvents()
		for _, id := range basics {
			a[id] = r.Intn(2) == 0
		}
		want := g.Evaluate(append(faultgraph.Assignment(nil), a...))
		if got := ev.EvalBasics(a); got != want {
			t.Fatalf("graph %d: EvalBasics = %v, Evaluate = %v", i, got, want)
		}
		for flip := 0; flip < 50; flip++ {
			id := basics[r.Intn(len(basics))]
			a[id] = !a[id]
			ev.SetBasic(id, a[id])
			want := g.Evaluate(append(faultgraph.Assignment(nil), a...))
			if got := ev.TopFailed(); got != want {
				t.Fatalf("graph %d flip %d: TopFailed = %v, Evaluate = %v", i, flip, got, want)
			}
		}
	}
}
