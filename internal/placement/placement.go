// Package placement searches the redundancy-deployment space for the most
// independent configurations — the decision INDaaS audits exist to enable
// (§6.2, Figs. 6b/6c). Given a dependency database, a pool of candidate
// nodes and a replication degree r, it scores "choose r of n" deployments by
// auditing each candidate through the SIA pipeline (fault graph build +
// risk-group determination) and returns the top-k ranked by independence:
// minimal-RG size profile when unweighted, failure probability when
// component weights are available.
//
// Three strategies share one batch-parallel evaluator:
//
//   - Exact enumerates every combination — the differential oracle,
//     practical for small pools;
//   - Greedy grows one deployment by marginal independence, r sequential
//     rounds of n parallel audits;
//   - Beam keeps the Width best partial deployments per round, a middle
//     ground that recovers from greedy's local traps at bounded cost.
//
// Every strategy fans its candidate audits across a worker pool and honors
// context cancellation, so one recommendation job shards hundreds of audits
// across cores and aborts promptly when the caller gives up.
package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/sia"
)

// Strategy selects the deployment-space search algorithm.
type Strategy int

const (
	// Auto picks Exact when the combination count fits MaxCandidates and
	// Beam otherwise.
	Auto Strategy = iota
	// Exact scores every r-of-n combination — the brute-force oracle.
	Exact
	// Greedy grows a single deployment node by node, each round adding the
	// node whose marginal audit scores best.
	Greedy
	// Beam is a beam search: the Width best partial deployments survive
	// each round.
	Beam
)

// String names the strategy for reports and wire forms.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Exact:
		return "exact"
	case Greedy:
		return "greedy"
	case Beam:
		return "beam"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StrategyFromString parses the name produced by Strategy.String.
func StrategyFromString(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "exact":
		return Exact, nil
	case "greedy":
		return Greedy, nil
	case "beam":
		return Beam, nil
	default:
		return Auto, fmt.Errorf("placement: unknown strategy %q", s)
	}
}

// Defaults applied by Request.validate.
const (
	// DefaultTopK is the number of ranked deployments returned.
	DefaultTopK = 3
	// DefaultMaxCandidates bounds the exact search (and Auto's use of it):
	// above this many combinations Exact refuses and Auto switches to Beam.
	DefaultMaxCandidates = 100_000
)

// Request describes one recommendation: choose Replicas nodes out of
// Fixed ∪ Nodes, always keeping Fixed (already-placed replicas), maximizing
// independence.
type Request struct {
	// Nodes is the candidate pool. Every node must have dependency records
	// in the database.
	Nodes []string
	// Fixed nodes are part of every candidate deployment — the engine
	// chooses the remaining Replicas−len(Fixed) from Nodes. Incremental
	// placement (cloudsim's IndependenceScheduler) pins the replicas that
	// already run here.
	Fixed []string
	// Replicas is the total deployment size, Fixed included.
	Replicas int
	// TopK is how many ranked deployments to return (default DefaultTopK).
	// Greedy always returns exactly one.
	TopK int
	// Strategy picks the search algorithm (default Auto).
	Strategy Strategy
	// BeamWidth is Beam's surviving-set size per round
	// (default max(8, 4·TopK)).
	BeamWidth int
	// MaxCandidates bounds the exact search (default DefaultMaxCandidates).
	MaxCandidates int
	// Workers bounds the candidate audits scored concurrently
	// (0 = one per CPU). Parallelism never changes the result: scoring is
	// deterministic per deployment and ranking is a stable sort.
	Workers int
	// Kinds restricts the dependency kinds audited; empty means all.
	Kinds []deps.Kind
	// Prob optionally weights components with failure probabilities; when
	// set, deployments rank by Pr(outage) instead of size profile. The
	// caller must set Audit.RankMode to sia.RankByProb alongside it.
	Prob func(component string) float64
	// Audit tunes each candidate's SIA run (algorithm, rounds, bounds).
	Audit sia.Options
	// Cache, when set, holds candidate scores known from outside this search
	// — the audit service's memo of earlier searches over the same records.
	// It is asked before a candidate is audited, and told every score an audit
	// produces. A cached score is never re-audited, so Result.Evaluated counts
	// only the audits this search ran; the ranking is the same either way.
	Cache ScoreCache
}

// ScoreCache is Request.Cache: candidate scores by deployment, each a sorted
// node list. Get also returns the deployment's key in the cache, which Put
// takes back after a miss, so a candidate is addressed once. Implementations
// synchronize themselves; the search calls them from its worker goroutines.
type ScoreCache interface {
	Get(nodes []string) (s Score, key string, ok bool)
	Put(key string, s Score)
}

// Validate applies defaults in place and rejects impossible searches.
// Search calls it implicitly; services call it at submission time so a
// malformed request fails fast instead of occupying a worker.
func (r *Request) Validate() error { return r.validate() }

// validate applies defaults and rejects impossible searches.
func (r *Request) validate() error {
	if r.Replicas < 1 {
		return fmt.Errorf("placement: replicas=%d, need at least 1", r.Replicas)
	}
	seen := make(map[string]bool, len(r.Nodes)+len(r.Fixed))
	for _, n := range append(append([]string(nil), r.Fixed...), r.Nodes...) {
		if n == "" {
			return fmt.Errorf("placement: empty node name")
		}
		if seen[n] {
			return fmt.Errorf("placement: duplicate node %q", n)
		}
		seen[n] = true
	}
	if r.Replicas <= len(r.Fixed) {
		return fmt.Errorf("placement: replicas=%d does not exceed the %d fixed nodes", r.Replicas, len(r.Fixed))
	}
	if need := r.Replicas - len(r.Fixed); need > len(r.Nodes) {
		return fmt.Errorf("placement: need %d more nodes but the pool has %d", need, len(r.Nodes))
	}
	if r.TopK <= 0 {
		r.TopK = DefaultTopK
	}
	if r.MaxCandidates <= 0 {
		r.MaxCandidates = DefaultMaxCandidates
	}
	if r.BeamWidth <= 0 {
		r.BeamWidth = 4 * r.TopK
		if r.BeamWidth < 8 {
			r.BeamWidth = 8
		}
	}
	return nil
}

// Score is a deployment's independence profile, the comparison key of the
// search. Lower is better under Less.
type Score struct {
	// SizeVector counts risk groups by size: SizeVector[i] RGs need i+1
	// simultaneous component failures.
	SizeVector []int
	// RGCount is the total number of risk groups found.
	RGCount int
	// Unexpected counts RGs smaller than the replication degree — the
	// correlated failures redundancy was supposed to rule out.
	Unexpected int
	// Independence is the §4.1.4 independence score (higher is better).
	Independence float64
	// FailureProb is Pr(top event); NaN when the audit is unweighted.
	FailureProb float64
}

// Less orders scores most-independent first: by failure probability when
// both sides are weighted, else by size vector (fewer small RGs first),
// with the independence score as the final numeric tie-break.
func (s Score) Less(o Score) bool {
	ap, bp := s.FailureProb, o.FailureProb
	if !math.IsNaN(ap) && !math.IsNaN(bp) && ap != bp {
		return ap < bp
	}
	for k := 0; k < len(s.SizeVector) || k < len(o.SizeVector); k++ {
		var x, y int
		if k < len(s.SizeVector) {
			x = s.SizeVector[k]
		}
		if k < len(o.SizeVector) {
			y = o.SizeVector[k]
		}
		if x != y {
			return x < y
		}
	}
	if s.Independence != o.Independence {
		return s.Independence > o.Independence
	}
	return false
}

// Ranked is one recommended deployment.
type Ranked struct {
	// Nodes is the deployment, sorted.
	Nodes []string
	Score Score
}

// Result is a completed search.
type Result struct {
	Strategy Strategy
	Replicas int
	// TotalCandidates is the full combination count C(pool, choose); the
	// exact strategy scores all of them, greedy and beam a fraction.
	TotalCandidates int
	// Evaluated counts the candidate audits actually run: deployments
	// re-visited by beam rounds are scored once, and Request.Cache hits are
	// not audited.
	Evaluated int
	// Top is the ranking, most independent first, at most TopK entries.
	Top     []Ranked
	Elapsed time.Duration
}

// Search runs the requested strategy and returns the ranked recommendation.
func Search(ctx context.Context, db depdb.Reader, req Request) (*Result, error) {
	start := time.Now()
	if err := req.validate(); err != nil {
		return nil, err
	}
	choose := req.Replicas - len(req.Fixed)
	total := combinations(len(req.Nodes), choose)
	strategy := req.Strategy
	if strategy == Auto {
		if total <= req.MaxCandidates {
			strategy = Exact
		} else {
			strategy = Beam
		}
	}
	e := newEvaluator(db, &req)
	var top []Ranked
	var err error
	switch strategy {
	case Exact:
		if total > req.MaxCandidates {
			return nil, fmt.Errorf("placement: exact search over %d candidates exceeds MaxCandidates=%d; use greedy or beam", total, req.MaxCandidates)
		}
		top, err = searchExact(ctx, e, &req)
	case Greedy:
		top, err = searchGreedy(ctx, e, &req)
	case Beam:
		top, err = searchBeam(ctx, e, &req)
	default:
		return nil, fmt.Errorf("placement: unknown strategy %v", strategy)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:        strategy,
		Replicas:        req.Replicas,
		TotalCandidates: total,
		Evaluated:       e.evaluatedCount(),
		Top:             top,
		Elapsed:         time.Since(start),
	}, nil
}

// ScoreDeployment audits one fixed deployment with the request's kinds,
// weights and audit options — the single-candidate entry point schedulers
// use to compare hypothetical placements.
func ScoreDeployment(ctx context.Context, db depdb.Reader, nodes []string, req Request) (Score, error) {
	if len(nodes) == 0 {
		return Score{}, fmt.Errorf("placement: empty deployment")
	}
	e := newEvaluator(db, &req)
	scores, err := e.scoreBatch(ctx, [][]string{sortedCopy(nodes)})
	if err != nil {
		return Score{}, err
	}
	return scores[0], nil
}

// rank stably sorts deployments most-independent first, tie-breaking on the
// node list so results are deterministic, and truncates to k.
func rank(sets [][]string, scores []Score, k int) []Ranked {
	out := make([]Ranked, len(sets))
	for i := range sets {
		out[i] = Ranked{Nodes: sets[i], Score: scores[i]}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score.Less(out[j].Score) {
			return true
		}
		if out[j].Score.Less(out[i].Score) {
			return false
		}
		return deploymentKey(out[i].Nodes) < deploymentKey(out[j].Nodes)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// combinations is C(n, k), saturating instead of overflowing so the guard
// against runaway exact searches stays meaningful at any pool size.
func combinations(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const saturate = math.MaxInt / 2
	c := 1
	for i := 1; i <= k; i++ {
		if c > saturate/(n-k+i) {
			return saturate
		}
		c = c * (n - k + i) / i
	}
	return c
}

// sortedCopy returns a sorted copy of nodes — the canonical deployment form.
func sortedCopy(nodes []string) []string {
	out := append([]string(nil), nodes...)
	sort.Strings(out)
	return out
}

// deploymentKey is the canonical identity of a node set.
func deploymentKey(sorted []string) string {
	return strings.Join(sorted, "\x1f")
}
