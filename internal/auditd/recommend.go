package auditd

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"indaas/internal/deps"
	"indaas/internal/placement"
)

// RecommendRequest is the body of POST /v1/recommend: pick the most
// independent Replicas-node deployments out of a candidate pool, searched by
// the placement engine (see internal/placement).
type RecommendRequest struct {
	// Title names the recommendation; like audit titles it does not
	// contribute to the cache key.
	Title string `json:"title,omitempty"`
	// Records inlines the dependency records to search over. Empty means
	// use the server's database (preloaded or ingested via /v1/depdb).
	Records []RecordWire `json:"records,omitempty"`
	// Nodes is the candidate pool. Empty means every subject the database
	// has records for.
	Nodes []string `json:"nodes,omitempty"`
	// Fixed nodes are part of every candidate deployment (already-placed
	// replicas); the engine chooses the rest from Nodes.
	Fixed []string `json:"fixed,omitempty"`
	// Replicas is the total deployment size, Fixed included.
	Replicas int `json:"replicas"`
	// TopK is how many ranked deployments to return (default 3).
	TopK int `json:"top_k,omitempty"`
	// Strategy is "auto" (default), "exact", "greedy" or "beam".
	Strategy string `json:"strategy,omitempty"`
	// BeamWidth tunes the beam strategy (0 = engine default).
	BeamWidth int `json:"beam_width,omitempty"`
	// MaxCandidates bounds the exact search (0 = engine default).
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Kinds restricts the dependency kinds considered; empty means all.
	Kinds []string `json:"kinds,omitempty"`
	// Algorithm is "minimal-rg" (default) or "failure-sampling", applied to
	// every candidate audit.
	Algorithm string `json:"algorithm,omitempty"`
	// Rounds / Seed / SamplerWorkers tune failure-sampling, with the same
	// defaults as audit submissions. SamplerWorkers is speed only; not part
	// of the address; clamped to the host's CPUs.
	Rounds         int   `json:"rounds,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	SamplerWorkers int   `json:"sampler_workers,omitempty"`
	// FailureProb, when > 0, weights every component uniformly and ranks
	// deployments by Pr(outage).
	FailureProb float64 `json:"failure_prob,omitempty"`
	// MaxSets / MaxSize bound each candidate's minimal-RG run.
	MaxSets int `json:"max_sets,omitempty"`
	MaxSize int `json:"max_size,omitempty"`
	// Workers bounds the candidate audits scored concurrently (0 = one per
	// CPU). Parallelism never changes the ranking, so like Title it stays
	// out of the cache key.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps the job's run time; same semantics as audit jobs.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalizedRecommend is the canonical, defaults-applied form the cache key
// hashes. Op keeps recommendation keys disjoint from audit keys even if the
// remaining fields ever marshaled identically. For a server-database search
// the db field is the scope of fixed ∪ nodes under the kinds.
type normalizedRecommend struct {
	Op            string   `json:"op"` // always "recommend"
	DB            string   `json:"db"`
	Nodes         []string `json:"nodes"`
	Fixed         []string `json:"fixed,omitempty"`
	Replicas      int      `json:"replicas"`
	TopK          int      `json:"top_k"`
	Strategy      string   `json:"strategy"`
	BeamWidth     int      `json:"beam_width,omitempty"`
	MaxCandidates int      `json:"max_candidates,omitempty"`
	Kinds         []string `json:"kinds,omitempty"`
	algorithmOptions
	MaxSets int `json:"max_sets,omitempty"`
	MaxSize int `json:"max_size,omitempty"`
}

// normalize validates the request and produces the canonical form (minus
// the db field and node pool, resolved by the caller against the database
// snapshot) plus the placement request to run.
func (r *RecommendRequest) normalize() (normalizedRecommend, placement.Request, error) {
	n := normalizedRecommend{Op: "recommend"}
	var preq placement.Request
	if r.Replicas < 1 {
		return n, preq, fmt.Errorf("auditd: replicas=%d, need at least 1", r.Replicas)
	}
	strategy, err := placement.StrategyFromString(r.Strategy)
	if err != nil {
		return n, preq, fmt.Errorf("auditd: %w", err)
	}
	kinds := append([]string(nil), r.Kinds...)
	sort.Strings(kinds)
	var kindList []deps.Kind
	for _, name := range kinds {
		k, err := deps.KindFromString(name)
		if err != nil {
			return n, preq, fmt.Errorf("auditd: %w", err)
		}
		kindList = append(kindList, k)
	}
	algo, opts, err := normalizeAlgorithm(r.Algorithm, r.Rounds, r.Seed, r.SamplerWorkers, r.FailureProb, r.MaxSets, r.MaxSize)
	if err != nil {
		return n, preq, err
	}
	if r.TopK < 0 || r.BeamWidth < 0 || r.MaxCandidates < 0 || r.TimeoutMS < 0 || r.Workers < 0 {
		return n, preq, errNegativeOption
	}
	var probFn func(string) float64
	if r.FailureProb > 0 {
		p := r.FailureProb
		probFn = func(string) float64 { return p }
	}
	n.algorithmOptions, n.MaxSets, n.MaxSize = algo, r.MaxSets, r.MaxSize

	n.Fixed = append([]string(nil), r.Fixed...)
	sort.Strings(n.Fixed)
	n.Replicas = r.Replicas
	n.TopK = r.TopK
	if n.TopK == 0 {
		n.TopK = placement.DefaultTopK
	}
	n.Strategy = strategy.String()
	n.BeamWidth = r.BeamWidth
	n.MaxCandidates = r.MaxCandidates
	n.Kinds = kinds

	preq = placement.Request{
		Fixed:         n.Fixed,
		Replicas:      n.Replicas,
		TopK:          n.TopK,
		Strategy:      strategy,
		BeamWidth:     n.BeamWidth,
		MaxCandidates: n.MaxCandidates,
		Workers:       r.Workers,
		Kinds:         kindList,
		Prob:          probFn,
		Audit:         opts,
	}
	return n, preq, nil
}

// key derives the content address of the normalized recommendation.
func (n *normalizedRecommend) key() string {
	return canonicalKey(n)
}

// recommendKind is the placement recommendation (§5): POST /v1/recommend, a
// RecommendRequest in, a RecommendResponse out.
var recommendKind = &jobKind{
	name:       KindRecommend,
	route:      "/v1/recommend",
	hint:       "a recommendation job; use RecommendResult",
	markers:    []string{"rankings", "strategy"},
	newRequest: func() jobRequest { return new(RecommendRequest) },
	decodeResult: func(obj []byte, title string) (any, error) {
		rec := new(RecommendResponse)
		err := json.Unmarshal(obj, rec)
		rec.Title = title
		return rec, err
	},
}

// Recommend validates and accepts a placement recommendation, returning the
// new job's status. Recommendation jobs share the audit queue, worker pool,
// result cache and cancellation plumbing: poll and fetch them through the
// same /v1/audits/{id} endpoints.
func (s *Server) Recommend(req *RecommendRequest) (JobStatus, error) {
	return s.submitJob(recommendKind, req, origin{})
}

// prepare readies a recommendation: the candidate pool is resolved against
// the snapshot, structurally impossible searches are refused, and the run
// closure searches the deployment space. A server-database search reads and
// fills the server's candidate scores (candidateScores), so it re-audits only
// the candidates whose records moved since they were last scored.
func (r *RecommendRequest) prepare(s *Server) (*preparedJob, error) {
	n, preq, err := r.normalize()
	if err != nil {
		return nil, &statusErr{code: 400, err: err}
	}
	snap, err := s.resolveDB(r.Records)
	if err != nil {
		return nil, err
	}
	// Resolve the candidate pool against the snapshot: an empty pool means
	// every subject with records, minus the fixed nodes. A named server the
	// snapshot has no records for could only fail the search as a job.
	subjects := snap.Subjects() // sorted
	for _, srv := range append(append([]string(nil), n.Fixed...), r.Nodes...) {
		if _, ok := slices.BinarySearch(subjects, srv); !ok {
			return nil, &statusErr{code: 400, err: fmt.Errorf("auditd: no dependency records for server %q", srv)}
		}
	}
	if len(r.Nodes) > 0 {
		n.Nodes = append([]string(nil), r.Nodes...)
		sort.Strings(n.Nodes)
	} else {
		fixed := make(map[string]bool, len(n.Fixed))
		for _, f := range n.Fixed {
			fixed[f] = true
		}
		for _, subj := range subjects {
			if !fixed[subj] {
				n.Nodes = append(n.Nodes, subj)
			}
		}
	}
	if len(n.Nodes) == 0 {
		return nil, &statusErr{code: 400, err: fmt.Errorf("auditd: no candidate nodes (empty pool and no database subjects)")}
	}
	preq.Nodes = n.Nodes
	// Fail structurally impossible searches (duplicate nodes, pool smaller
	// than replicas, fixed ⊇ replicas …) at submission time with a 400,
	// like every other invalid request — not as a failed job.
	if err := preq.Validate(); err != nil {
		return nil, &statusErr{code: 400, err: err}
	}

	inline := len(r.Records) > 0
	n.DB = snap.Fingerprint()
	if !inline {
		n.DB = snap.Scope(append(append([]string(nil), n.Fixed...), n.Nodes...), preq.Kinds)
		preq.Cache = &candidateScores{memo: s.scores, snap: snap, kinds: n.Kinds, audit: normalized{
			algorithmOptions: n.algorithmOptions, MaxSets: n.MaxSets, MaxSize: n.MaxSize,
		}}
	}
	p := &preparedJob{title: r.Title, timeoutMS: r.TimeoutMS, accepted: &s.m.Recommendations, fingerprint: snap.Fingerprint(), Workload: Workload{
		Key: n.key(),
		Run: func(ctx context.Context) (any, error) {
			res, err := placement.Search(ctx, snap, preq)
			if err != nil {
				return nil, err
			}
			return recommendResponseFromResult(res), nil
		},
	}}
	return p, nil
}

// RecommendResponse is the wire form of a completed placement search. Its
// JSON is stable and NaN-safe: unknown failure probabilities are omitted
// rather than encoded as NaN, which encoding/json rejects.
type RecommendResponse struct {
	Title    string `json:"title,omitempty"`
	Strategy string `json:"strategy"`
	Replicas int    `json:"replicas"`
	// TotalCandidates is C(pool, replicas−fixed); Evaluated is how many
	// candidate audits actually ran.
	TotalCandidates int                  `json:"total_candidates"`
	Evaluated       int                  `json:"evaluated"`
	Rankings        []RecommendationWire `json:"rankings"`
	ElapsedNS       int64                `json:"elapsed_ns"`
}

// RecommendationWire is one ranked deployment.
type RecommendationWire struct {
	Rank  int      `json:"rank"`
	Nodes []string `json:"nodes"`
	// SizeVector counts risk groups by size (index i = RGs of size i+1).
	SizeVector []int `json:"size_vector"`
	RGCount    int   `json:"rg_count"`
	Unexpected int   `json:"unexpected"`
	// Score is the §4.1.4 independence score (higher is better).
	Score float64 `json:"score"`
	// FailureProb is Pr(outage); omitted when the search was unweighted.
	FailureProb *float64 `json:"failure_prob,omitempty"`
}

// recommendResponseFromResult converts an engine result to its wire form.
func recommendResponseFromResult(res *placement.Result) *RecommendResponse {
	out := &RecommendResponse{
		Strategy:        res.Strategy.String(),
		Replicas:        res.Replicas,
		TotalCandidates: res.TotalCandidates,
		Evaluated:       res.Evaluated,
		ElapsedNS:       res.Elapsed.Nanoseconds(),
	}
	for i, r := range res.Top {
		w := RecommendationWire{
			Rank:       i + 1,
			Nodes:      r.Nodes,
			SizeVector: r.Score.SizeVector,
			RGCount:    r.Score.RGCount,
			Unexpected: r.Score.Unexpected,
			Score:      r.Score.Independence,
		}
		if !math.IsNaN(r.Score.FailureProb) {
			p := r.Score.FailureProb
			w.FailureProb = &p
		}
		out.Rankings = append(out.Rankings, w)
	}
	return out
}
