package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/sia"
)

// labDB builds a rack-structured fixture: n servers, torSize per top-of-rack
// switch, every ToR uplinked through Core1+Core2, one disk per server drawn
// from diskBatches shared batches (0 = private disks). Shared ToRs and
// shared disk batches are the correlated-failure traps the search must
// avoid.
func labDB(t testing.TB, n, torSize, diskBatches int) (*depdb.DB, []string) {
	t.Helper()
	db := depdb.New()
	nodes := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%02d", i+1)
		tor := fmt.Sprintf("ToR%d", i/torSize+1)
		disk := fmt.Sprintf("disk-%02d", i+1)
		if diskBatches > 0 {
			disk = fmt.Sprintf("batch-%d", i%diskBatches)
		}
		if err := db.Put(
			deps.NewNetwork(name, "Internet", tor, "Core1"),
			deps.NewNetwork(name, "Internet", tor, "Core2"),
			deps.NewHardware(name, "Disk", disk),
		); err != nil {
			t.Fatal(err)
		}
		nodes[i] = name
	}
	return db, nodes
}

// scoresEquivalent reports whether two scores compare equal under the
// ranking order (neither strictly better).
func scoresEquivalent(a, b Score) bool {
	return !a.Less(b) && !b.Less(a)
}

// rankedEqual compares rankings NaN-aware (reflect.DeepEqual treats the
// unweighted NaN failure probability as unequal to itself).
func rankedEqual(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !reflect.DeepEqual(x.Nodes, y.Nodes) ||
			!reflect.DeepEqual(x.Score.SizeVector, y.Score.SizeVector) ||
			x.Score.RGCount != y.Score.RGCount ||
			x.Score.Unexpected != y.Score.Unexpected ||
			x.Score.Independence != y.Score.Independence {
			return false
		}
		if math.IsNaN(x.Score.FailureProb) != math.IsNaN(y.Score.FailureProb) {
			return false
		}
		if !math.IsNaN(x.Score.FailureProb) && x.Score.FailureProb != y.Score.FailureProb {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstExactOracle is the acceptance differential: on
// small-n fixtures the greedy and beam strategies must land on a deployment
// scoring exactly as well as the brute-force optimum.
func TestDifferentialAgainstExactOracle(t *testing.T) {
	cases := []struct {
		n, torSize, batches, replicas int
	}{
		{4, 2, 0, 2},
		{6, 2, 3, 2},
		{6, 3, 0, 3},
		{7, 2, 3, 3},
		{8, 2, 4, 3},
		{9, 3, 2, 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n=%d/tor=%d/batches=%d/r=%d", tc.n, tc.torSize, tc.batches, tc.replicas)
		t.Run(name, func(t *testing.T) {
			db, nodes := labDB(t, tc.n, tc.torSize, tc.batches)
			base := Request{Nodes: nodes, Replicas: tc.replicas, TopK: 3}

			exact := base
			exact.Strategy = Exact
			oracle, err := Search(context.Background(), db, exact)
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Evaluated != oracle.TotalCandidates {
				t.Fatalf("exact evaluated %d of %d candidates", oracle.Evaluated, oracle.TotalCandidates)
			}
			for i := 1; i < len(oracle.Top); i++ {
				if oracle.Top[i].Score.Less(oracle.Top[i-1].Score) {
					t.Fatalf("exact ranking out of order at %d", i)
				}
			}

			for _, strat := range []Strategy{Greedy, Beam} {
				req := base
				req.Strategy = strat
				res, err := Search(context.Background(), db, req)
				if err != nil {
					t.Fatalf("%v: %v", strat, err)
				}
				if len(res.Top) == 0 {
					t.Fatalf("%v returned no deployments", strat)
				}
				got, want := res.Top[0], oracle.Top[0]
				if !scoresEquivalent(got.Score, want.Score) {
					t.Errorf("%v top-1 %v (score %+v) worse than exact optimum %v (score %+v)",
						strat, got.Nodes, got.Score, want.Nodes, want.Score)
				}
			}
		})
	}
}

// TestExactRanking pins the concrete optimum on the 4-server/2-ToR fixture:
// cross-ToR pairs have no size-1 risk group, same-ToR pairs do.
func TestExactRanking(t *testing.T) {
	db, nodes := labDB(t, 4, 2, 0)
	res, err := Search(context.Background(), db, Request{
		Nodes: nodes, Replicas: 2, TopK: 6, Strategy: Exact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCandidates != 6 || len(res.Top) != 6 {
		t.Fatalf("want all 6 pairs ranked, got %d/%d", len(res.Top), res.TotalCandidates)
	}
	best := res.Top[0]
	if !reflect.DeepEqual(best.Nodes, []string{"s01", "s03"}) {
		t.Fatalf("top-1 = %v, want the lexicographically first cross-ToR pair", best.Nodes)
	}
	if best.Score.Unexpected != 0 || best.Score.SizeVector[0] != 0 {
		t.Fatalf("cross-ToR pair must have no size-1 RGs: %+v", best.Score)
	}
	// The two same-ToR pairs sink to the bottom with their {ToR} RG.
	for _, worst := range res.Top[4:] {
		if worst.Score.Unexpected == 0 {
			t.Fatalf("same-ToR pair ranked too well: %+v", worst)
		}
	}
}

// TestWeightedRanking: with component weights the ranking flips to failure
// probability and the response carries Pr(outage).
func TestWeightedRanking(t *testing.T) {
	db, nodes := labDB(t, 4, 2, 0)
	req := Request{
		Nodes: nodes, Replicas: 2, Strategy: Exact, TopK: 6,
		Prob:  func(string) float64 { return 0.01 },
		Audit: sia.Options{RankMode: sia.RankByProb},
	}
	res, err := Search(context.Background(), db, req)
	if err != nil {
		t.Fatal(err)
	}
	top, bottom := res.Top[0], res.Top[len(res.Top)-1]
	if math.IsNaN(top.Score.FailureProb) {
		t.Fatal("weighted search must report failure probabilities")
	}
	if !(top.Score.FailureProb < bottom.Score.FailureProb) {
		t.Fatalf("ranking not ordered by Pr(outage): %v vs %v", top.Score.FailureProb, bottom.Score.FailureProb)
	}
}

// TestFixedNodes: every recommended deployment contains the pinned nodes,
// across all strategies.
func TestFixedNodes(t *testing.T) {
	db, nodes := labDB(t, 6, 2, 0)
	for _, strat := range []Strategy{Exact, Greedy, Beam} {
		res, err := Search(context.Background(), db, Request{
			Nodes: nodes[1:], Fixed: nodes[:1], Replicas: 3, Strategy: strat,
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, r := range res.Top {
			found := false
			for _, n := range r.Nodes {
				if n == "s01" {
					found = true
				}
			}
			if !found || len(r.Nodes) != 3 {
				t.Fatalf("%v: deployment %v must contain fixed s01 and have 3 nodes", strat, r.Nodes)
			}
		}
	}
}

// TestParallelScoringDeterminism: worker-pool fan-out must not change the
// result — scoring is per-deployment deterministic and ranking stable.
func TestParallelScoringDeterminism(t *testing.T) {
	db, nodes := labDB(t, 9, 3, 4)
	for _, strat := range []Strategy{Exact, Greedy, Beam} {
		var ref *Result
		for _, workers := range []int{1, 8} {
			res, err := Search(context.Background(), db, Request{
				Nodes: nodes, Replicas: 3, Strategy: strat, Workers: workers, TopK: 4,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !rankedEqual(res.Top, ref.Top) || res.Evaluated != ref.Evaluated {
				t.Fatalf("%v: workers=%d diverged from sequential:\n%+v\nvs\n%+v", strat, workers, res.Top, ref.Top)
			}
		}
	}
}

// TestSearchCancellation is the acceptance cancellation point: a recommend
// job fanning hundreds of slow candidate audits across workers must abort
// promptly — and cleanly under -race — when its context is canceled.
func TestSearchCancellation(t *testing.T) {
	db, nodes := labDB(t, 16, 2, 0)
	req := Request{
		Nodes: nodes, Replicas: 3, Strategy: Exact, Workers: 4,
		// Each candidate audit samples an absurd number of rounds: the
		// search can only end by cancellation.
		Audit: sia.Options{Algorithm: sia.FailureSampling, Rounds: 2_000_000_000, Workers: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Search(ctx, db, req)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search did not observe cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRequestValidation rejects impossible searches up front.
func TestRequestValidation(t *testing.T) {
	db, nodes := labDB(t, 4, 2, 0)
	bad := []Request{
		{Nodes: nodes, Replicas: 0},
		{Nodes: nodes, Replicas: 5},                              // pool too small
		{Nodes: []string{"s01", "s01"}, Replicas: 2},             // duplicate
		{Nodes: nodes[1:], Fixed: nodes[:1], Replicas: 1},        // fixed fills it
		{Nodes: nodes, Fixed: []string{"s01"}, Replicas: 2},      // fixed duplicated in pool
		{Nodes: []string{""}, Replicas: 1},                       // empty name
		{Nodes: []string{"ghost"}, Replicas: 1, Strategy: Exact}, // no records
		{Nodes: nodes, Replicas: 2, Strategy: Strategy(99)},      // unknown strategy
	}
	for i, req := range bad {
		if _, err := Search(context.Background(), db, req); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestAutoStrategy: Auto runs exact within MaxCandidates and switches to
// beam beyond it.
func TestAutoStrategy(t *testing.T) {
	db, nodes := labDB(t, 6, 2, 0)
	res, err := Search(context.Background(), db, Request{Nodes: nodes, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != Exact {
		t.Fatalf("small pool should resolve to exact, got %v", res.Strategy)
	}
	res, err = Search(context.Background(), db, Request{Nodes: nodes, Replicas: 3, MaxCandidates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != Beam {
		t.Fatalf("over-budget pool should resolve to beam, got %v", res.Strategy)
	}
	// Explicit exact over budget refuses instead of silently degrading.
	if _, err := Search(context.Background(), db, Request{Nodes: nodes, Replicas: 3, MaxCandidates: 5, Strategy: Exact}); err == nil {
		t.Fatal("explicit exact over MaxCandidates must error")
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, Exact, Greedy, Beam} {
		got, err := StrategyFromString(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, %v", s, got, err)
		}
	}
	if _, err := StrategyFromString("magic"); err == nil {
		t.Error("want error for unknown strategy name")
	}
}

func TestCombinations(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{4, 2, 6}, {6, 3, 20}, {10, 0, 1}, {10, 10, 1}, {5, 6, 0}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := combinations(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := combinations(300, 150); got <= 0 {
		t.Errorf("saturating C(300,150) must stay positive, got %d", got)
	}
}
