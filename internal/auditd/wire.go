package auditd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"indaas/internal/deps"
	"indaas/internal/sia"
	"indaas/internal/telemetry"
)

// RecordWire is the JSON form of a deps.Record: a flat tagged union, one
// kind per record, matching the Table 1 fields. Its codec is hand-written
// (recordcodec.go); the tags below are the wire keys it reads and writes.
type RecordWire struct {
	Kind string `json:"kind"` // "network", "hardware" or "software"
	// Network fields.
	Src   string   `json:"src,omitempty"`
	Dst   string   `json:"dst,omitempty"`
	Route []string `json:"route,omitempty"`
	// Hardware fields (HW doubles as the software host machine).
	HW   string `json:"hw,omitempty"`
	Type string `json:"type,omitempty"`
	Dep  string `json:"dep,omitempty"`
	// Software fields.
	Pgm  string   `json:"pgm,omitempty"`
	Deps []string `json:"deps,omitempty"`
}

// Record converts the wire form into a validated deps.Record.
func (w RecordWire) Record() (deps.Record, error) { return w.record(new(payloads)) }

// recordsFromWire validates wire records into native ones; the first invalid
// record is a 400 naming its index.
func recordsFromWire(records []RecordWire) ([]deps.Record, error) {
	out := make([]deps.Record, len(records))
	var p payloads
	for i := range records {
		r, err := records[i].record(&p)
		if err != nil {
			return nil, recordErr(i, err)
		}
		out[i] = r
	}
	return out, nil
}

// WireRecords converts native records to their wire form, for clients
// assembling requests from a local DepDB.
func WireRecords(records []deps.Record) []RecordWire {
	out := make([]RecordWire, 0, len(records))
	for _, r := range records {
		var w RecordWire
		switch r.Kind {
		case deps.KindNetwork:
			w = RecordWire{Kind: "network", Src: r.Network.Src, Dst: r.Network.Dst, Route: r.Network.Route}
		case deps.KindHardware:
			w = RecordWire{Kind: "hardware", HW: r.Hardware.HW, Type: r.Hardware.Type, Dep: r.Hardware.Dep}
		case deps.KindSoftware:
			w = RecordWire{Kind: "software", Pgm: r.Software.Pgm, HW: r.Software.HW, Deps: r.Software.Dep}
		}
		out = append(out, w)
	}
	return out
}

// DeploymentWire is one redundancy deployment to audit.
type DeploymentWire struct {
	Name    string   `json:"name"`
	Servers []string `json:"servers"`
	// Needed is the n of an n-of-m deployment; 0 means plain m-way
	// redundancy.
	Needed int `json:"needed,omitempty"`
	// Kinds restricts the dependency kinds considered
	// ("network", "hardware", "software"); empty means all.
	Kinds []string `json:"kinds,omitempty"`
}

// SubmitRequest is the body of POST /v1/audits: the §2 Step 1 client
// specification plus algorithm options.
type SubmitRequest struct {
	// Title names the report; it does NOT contribute to the cache key, so
	// identical audits under different titles still share one computation.
	Title string `json:"title,omitempty"`
	// Records inlines the dependency records to audit. Empty means audit
	// the server's preloaded database.
	Records []RecordWire `json:"records,omitempty"`
	// Deployments lists the alternative deployments to audit and rank.
	Deployments []DeploymentWire `json:"deployments"`
	// Algorithm is "minimal-rg" (default) or "failure-sampling".
	Algorithm string `json:"algorithm,omitempty"`
	// Rounds is the sampling round count (default 100000).
	Rounds int `json:"rounds,omitempty"`
	// Seed seeds the sampler (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SamplerWorkers is the sampler's parallelism: speed only; not part of
	// the address; clamped to the host's CPUs. The service default is 1,
	// leaving parallelism to the job pool.
	SamplerWorkers int `json:"sampler_workers,omitempty"`
	// FailureProb, when > 0, assigns this uniform failure probability to
	// every component and switches to probability ranking.
	FailureProb float64 `json:"failure_prob,omitempty"`
	// ScoreTopN is the n of the §4.1.4 independence score (0 = all RGs).
	ScoreTopN int `json:"score_top_n,omitempty"`
	// MaxSets / MaxSize bound the minimal-RG algorithm (see riskgroup).
	MaxSets int `json:"max_sets,omitempty"`
	MaxSize int `json:"max_size,omitempty"`
	// TimeoutMS caps the job's run time, measured from the moment a worker
	// starts the computation (queue wait does not count); 0 means the
	// server default. The cap is per job — a job coalescing onto a shared
	// computation keeps its own deadline without imposing it on the other
	// waiters — and, like Title, does not contribute to the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalized is the canonical, defaults-applied form of a request that the
// cache key hashes: two requests that can only produce identical reports
// (titles aside) normalize identically. DB is the "db" field: an
// inline request's private-database fingerprint, or the scope of the server
// records its deployments read.
type normalized struct {
	DB               string           `json:"db"`
	Deployments      []DeploymentWire `json:"deployments"`
	algorithmOptions                  // algorithm … failure_prob
	ScoreTopN        int              `json:"score_top_n,omitempty"`
	MaxSets          int              `json:"max_sets,omitempty"`
	MaxSize          int              `json:"max_size,omitempty"`
}

// algorithmOptions is the canonical risk-group algorithm block, embedded in
// the normalized form of audits and recommendations alike — at the position
// its fields always had, so content addresses are what they were.
type algorithmOptions struct {
	Algorithm   string  `json:"algorithm"`
	Rounds      int     `json:"rounds,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	FailureProb float64 `json:"failure_prob,omitempty"`
}

var errNegativeOption = errors.New("auditd: negative option")

// normalizeAlgorithm validates a request's algorithm options and applies the
// defaults that enter a content address — 100,000 rounds, seed 1 — returning
// the canonical block and the sia options to run with. The sampler's worker
// count changes only its speed, so it stays out of the block (default one
// worker: the job pool is the service's parallelism). It is the one place
// those defaults live, so audits and recommendations cannot drift apart.
func normalizeAlgorithm(algorithm string, rounds int, seed int64, workers int, failureProb float64, maxSets, maxSize int) (algorithmOptions, sia.Options, error) {
	n := algorithmOptions{FailureProb: failureProb}
	opts := sia.Options{MaxSets: maxSets, MaxSize: maxSize}
	switch algorithm {
	case "", "minimal-rg":
		n.Algorithm = "minimal-rg"
		opts.Algorithm = sia.MinimalRG
		// Sampler knobs are irrelevant here; keep them zero so they cannot
		// fragment the cache key.
	case "failure-sampling":
		n.Algorithm = "failure-sampling"
		opts.Algorithm = sia.FailureSampling
		n.Rounds, n.Seed = rounds, seed
		if n.Rounds == 0 {
			n.Rounds = 100_000
		}
		if n.Seed == 0 {
			n.Seed = 1 // the sampler's documented Seed==0 meaning
		}
		opts.Rounds, opts.Seed, opts.Workers = n.Rounds, n.Seed, max(workers, 1)
	default:
		return n, opts, fmt.Errorf("auditd: unknown algorithm %q", algorithm)
	}
	if failureProb < 0 || failureProb > 1 {
		return n, opts, fmt.Errorf("auditd: failure_prob %v out of [0,1]", failureProb)
	}
	if failureProb > 0 {
		opts.RankMode = sia.RankByProb
	}
	if maxSets < 0 || maxSize < 0 || rounds < 0 || workers < 0 {
		return n, opts, errNegativeOption
	}
	return n, opts, nil
}

// normalize validates the request's option fields and applies defaults,
// returning the canonical form (minus the db field, filled in by
// normalized.address) and the sia options to run with.
func (r *SubmitRequest) normalize() (normalized, sia.Options, error) {
	var n normalized
	var opts sia.Options
	if len(r.Deployments) == 0 {
		return n, opts, fmt.Errorf("auditd: request has no deployments")
	}
	seen := make(map[string]struct{}) // one deployment's servers; a small set stays on the stack
	for i, d := range r.Deployments {
		if d.Name == "" || len(d.Servers) == 0 {
			return n, opts, fmt.Errorf("auditd: deployment %d needs a name and at least one server", i)
		}
		clear(seen) // a repeated server would only fail later, in a worker, on a duplicate event label
		for _, srv := range d.Servers {
			if _, dup := seen[srv]; dup {
				return n, opts, fmt.Errorf("auditd: deployment %q lists server %q twice", d.Name, srv)
			}
			seen[srv] = struct{}{}
		}
		if d.Needed < 0 || d.Needed > len(d.Servers) {
			return n, opts, fmt.Errorf("auditd: deployment %q: needed=%d out of range 0..%d", d.Name, d.Needed, len(d.Servers))
		}
		kinds := append([]string(nil), d.Kinds...)
		sort.Strings(kinds)
		for _, k := range kinds {
			if _, err := deps.KindFromString(k); err != nil {
				return n, opts, fmt.Errorf("auditd: deployment %q: %w", d.Name, err)
			}
		}
		n.Deployments = append(n.Deployments, DeploymentWire{
			Name: d.Name, Servers: append([]string(nil), d.Servers...), Needed: d.Needed, Kinds: kinds,
		})
	}
	var err error
	n.algorithmOptions, opts, err = normalizeAlgorithm(r.Algorithm, r.Rounds, r.Seed, r.SamplerWorkers, r.FailureProb, r.MaxSets, r.MaxSize)
	if err != nil {
		return n, opts, err
	}
	if r.ScoreTopN < 0 || r.TimeoutMS < 0 {
		return n, opts, errNegativeOption
	}
	n.ScoreTopN, n.MaxSets, n.MaxSize = r.ScoreTopN, r.MaxSets, r.MaxSize
	opts.ScoreTopN = r.ScoreTopN
	return n, opts, nil
}

// specs converts the normalized deployments into sia graph specs.
func (n *normalized) specs() []sia.GraphSpec {
	var probFn func(string) float64
	if n.FailureProb > 0 {
		p := n.FailureProb
		probFn = func(string) float64 { return p }
	}
	specs := make([]sia.GraphSpec, 0, len(n.Deployments))
	for _, d := range n.Deployments {
		var kinds []deps.Kind
		for _, name := range d.Kinds {
			k, _ := deps.KindFromString(name) // validated in normalize
			kinds = append(kinds, k)
		}
		specs = append(specs, sia.GraphSpec{
			Deployment: d.Name,
			Servers:    d.Servers,
			Needed:     d.Needed,
			Kinds:      kinds,
			Prob:       probFn,
		})
	}
	return specs
}

// key derives the content address: the SHA-256 of the canonical JSON of the
// normalized request, whose db field names the records it reads (see
// normalized.address).
func (n *normalized) key() string {
	return canonicalKey(n)
}

// canonicalKey hashes a normalized request form (audit or recommendation)
// into its content address.
func canonicalKey(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		// normalized forms contain only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("auditd: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// JobStatus is the wire form of a job's lifecycle state, returned by submit
// and status endpoints.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"` // queued, running, done, failed, canceled
	CacheKey string `json:"cache_key"`
	// Cached is true when the job was answered from the result cache
	// without touching the queue.
	Cached bool `json:"cached,omitempty"`
	// DiskHit is true when the cached answer came from the persistent store
	// rather than the in-memory LRU — e.g. the result was computed before a
	// daemon restart.
	DiskHit bool `json:"disk_hit,omitempty"`
	// Coalesced is true when the job attached to an identical in-flight
	// computation instead of enqueueing its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// DeltaHit is true when the job's computation spliced deployment audits
	// the server held from earlier computations into its report, auditing
	// only the deployments whose records moved. (An ingest that misses every
	// audited server leaves the content address alone: that resubmission is a
	// plain Cached hit.)
	DeltaHit bool `json:"delta_hit,omitempty"`
	// DirtySubjects are the servers of the deployments a DeltaHit job
	// re-audited; empty when every deployment was spliced. Recommendations
	// omit it: their Evaluated count is the candidates re-scored.
	DirtySubjects []string `json:"dirty_subjects,omitempty"`
	// Recovered marks a job replayed from the crash journal at boot: a
	// submission an earlier process accepted but never settled, re-enqueued
	// under its original id.
	Recovered   bool       `json:"recovered,omitempty"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Trace is the phase timeline of the job's computation (queue-wait,
	// graph-build, minimal-rgs, sampling, splice, persist, notify), with
	// start offsets and durations in nanoseconds relative to submission.
	// Absent for jobs served from a cache/disk/delta hit — they never ran a
	// computation. TraceCounts carries pipeline counts (rgs_found,
	// rounds_sampled, subjects_spliced).
	Trace       []telemetry.Phase `json:"trace,omitempty"`
	TraceCounts map[string]int64  `json:"trace_counts,omitempty"`
}

// TraceResponse is the body of GET /v1/audits/{id}/trace: the job's phase
// timeline, pipeline counts, and end-to-end elapsed time (submission to
// completion, or to now while the job is still active).
type TraceResponse struct {
	ID        string            `json:"id"`
	State     string            `json:"state"`
	ElapsedNS int64             `json:"elapsed_ns"`
	Phases    []telemetry.Phase `json:"trace"`
	Counts    map[string]int64  `json:"counts,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}
