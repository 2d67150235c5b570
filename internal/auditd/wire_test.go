package auditd

import (
	"strings"
	"testing"
)

// TestSubmitNormalizeErrors pins every rejection path of
// SubmitRequest.normalize — previously only reachable through happy-path
// e2e runs — with the message fragment a client would see.
func TestSubmitNormalizeErrors(t *testing.T) {
	valid := func() *SubmitRequest {
		return &SubmitRequest{
			Records:     testRecords(),
			Deployments: []DeploymentWire{{Name: "d", Servers: []string{"s1", "s2"}}},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*SubmitRequest)
		wantErr string
	}{
		{
			name:    "no deployments",
			mutate:  func(r *SubmitRequest) { r.Deployments = nil },
			wantErr: "no deployments",
		},
		{
			name:    "deployment without name",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Name = "" },
			wantErr: "needs a name",
		},
		{
			name:    "deployment without servers",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Servers = nil },
			wantErr: "at least one server",
		},
		{
			name:    "server listed twice",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Servers = []string{"s1", "s2", "s1"} },
			wantErr: `lists server "s1" twice`,
		},
		{
			name:    "needed negative",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Needed = -1 },
			wantErr: "out of range",
		},
		{
			name:    "needed exceeds servers",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Needed = 3 },
			wantErr: "out of range",
		},
		{
			name:    "bad kind",
			mutate:  func(r *SubmitRequest) { r.Deployments[0].Kinds = []string{"router"} },
			wantErr: "kind",
		},
		{
			name:    "bad algorithm",
			mutate:  func(r *SubmitRequest) { r.Algorithm = "quantum" },
			wantErr: `unknown algorithm "quantum"`,
		},
		{
			name:    "failure prob above one",
			mutate:  func(r *SubmitRequest) { r.FailureProb = 1.5 },
			wantErr: "out of [0,1]",
		},
		{
			name:    "failure prob negative",
			mutate:  func(r *SubmitRequest) { r.FailureProb = -0.1 },
			wantErr: "out of [0,1]",
		},
		{
			name:    "negative score_top_n",
			mutate:  func(r *SubmitRequest) { r.ScoreTopN = -1 },
			wantErr: "negative option",
		},
		{
			name:    "negative max_sets",
			mutate:  func(r *SubmitRequest) { r.MaxSets = -1 },
			wantErr: "negative option",
		},
		{
			name:    "negative max_size",
			mutate:  func(r *SubmitRequest) { r.MaxSize = -1 },
			wantErr: "negative option",
		},
		{
			name:    "negative rounds",
			mutate:  func(r *SubmitRequest) { r.Rounds = -5 },
			wantErr: "negative option",
		},
		{
			name:    "negative timeout",
			mutate:  func(r *SubmitRequest) { r.TimeoutMS = -1 },
			wantErr: "negative option",
		},
		{
			name: "negative sampler workers",
			mutate: func(r *SubmitRequest) {
				r.Algorithm = "failure-sampling"
				r.SamplerWorkers = -2
			},
			wantErr: "negative option",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid()
			tc.mutate(req)
			if _, _, err := req.normalize(); err == nil {
				t.Fatal("normalize accepted an invalid request")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The valid fixture itself must normalize, with minimal-rg defaults.
	n, opts, err := valid().normalize()
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if n.Algorithm != "minimal-rg" || opts.Rounds != 0 || opts.Seed != 0 || opts.Workers != 0 {
		t.Fatalf("minimal-rg normalization leaked sampler knobs: %+v / %+v", n, opts)
	}
}

// TestSubmitNormalizeSamplingDefaults: the sampler path applies the
// documented host-independent defaults explicitly so they land in the key.
func TestSubmitNormalizeSamplingDefaults(t *testing.T) {
	req := &SubmitRequest{
		Records:     testRecords(),
		Deployments: []DeploymentWire{{Name: "d", Servers: []string{"s1"}}},
		Algorithm:   "failure-sampling",
	}
	n, opts, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Rounds != 100_000 || n.Seed != 1 || n.Workers != 1 {
		t.Fatalf("sampling defaults not applied: %+v", n)
	}
	if opts.Rounds != 100_000 || opts.Seed != 1 || opts.Workers != 1 {
		t.Fatalf("sia options diverge from canonical form: %+v", opts)
	}
}

// TestSubmitNormalizeCanonicalKinds: kind lists sort into one canonical
// order so permutations share a cache key.
func TestSubmitNormalizeCanonicalKinds(t *testing.T) {
	mk := func(kinds ...string) *SubmitRequest {
		return &SubmitRequest{
			Records:     testRecords(),
			Deployments: []DeploymentWire{{Name: "d", Servers: []string{"s1", "s2"}, Kinds: kinds}},
		}
	}
	a, _, err := mk("software", "network").normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := mk("network", "software").normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.key() != b.key() {
		t.Fatal("kind order must not fragment the cache key")
	}
}

// TestRecordWireErrors: malformed records are rejected at conversion, not
// deep inside a graph build.
func TestRecordWireErrors(t *testing.T) {
	cases := []struct {
		name string
		w    RecordWire
	}{
		{"unknown kind", RecordWire{Kind: "router", Src: "a"}},
		{"empty kind", RecordWire{}},
		{"network with empty route element", RecordWire{Kind: "network", Src: "a", Dst: "b", Route: []string{""}}},
		{"network without src", RecordWire{Kind: "network", Dst: "b", Route: []string{"x"}}},
		{"hardware without dep", RecordWire{Kind: "hardware", HW: "a", Type: "Disk"}},
		{"software without pgm", RecordWire{Kind: "software", HW: "a", Deps: []string{"libc6"}}},
		{"list separator in a dep", RecordWire{Kind: "software", Pgm: "p", HW: "h", Deps: []string{"a\x1eb"}}},
		{"field separator in a name", RecordWire{Kind: "hardware", HW: "s1\x1fNIC", Type: "x", Dep: "m"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.w.Record(); err == nil {
				t.Fatalf("Record() accepted %+v", tc.w)
			}
			// Through ingest it is a 400 naming the record.
			_, err := recordsFromWire(append(testRecords()[:1], tc.w))
			if httpStatus(err) != 400 || !strings.Contains(err.Error(), "record 1") {
				t.Fatalf("ingest of %+v: %v", tc.w, err)
			}
		})
	}
}

// TestRecommendNormalizeErrors covers the recommendation request's
// rejection paths the same way.
func TestRecommendNormalizeErrors(t *testing.T) {
	valid := func() *RecommendRequest {
		return &RecommendRequest{
			Records:  testRecords(),
			Nodes:    []string{"s1", "s2"},
			Replicas: 2,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*RecommendRequest)
		wantErr string
	}{
		{"zero replicas", func(r *RecommendRequest) { r.Replicas = 0 }, "replicas"},
		{"bad strategy", func(r *RecommendRequest) { r.Strategy = "magic" }, "strategy"},
		{"bad kind", func(r *RecommendRequest) { r.Kinds = []string{"router"} }, "kind"},
		{"bad algorithm", func(r *RecommendRequest) { r.Algorithm = "quantum" }, "algorithm"},
		{"failure prob out of range", func(r *RecommendRequest) { r.FailureProb = 2 }, "out of [0,1]"},
		{"negative top_k", func(r *RecommendRequest) { r.TopK = -1 }, "negative option"},
		{"negative beam width", func(r *RecommendRequest) { r.BeamWidth = -1 }, "negative option"},
		{"negative workers", func(r *RecommendRequest) { r.Workers = -1 }, "negative option"},
		{"negative sampler workers", func(r *RecommendRequest) { r.SamplerWorkers = -1 }, "negative option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid()
			tc.mutate(req)
			if _, _, err := req.normalize(); err == nil {
				t.Fatal("normalize accepted an invalid request")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestPrivateAuditNormalizeErrors pins every rejection path of
// PrivateAuditRequest.normalize with the message fragment a client sees.
func TestPrivateAuditNormalizeErrors(t *testing.T) {
	valid := func() *PrivateAuditRequest {
		return &PrivateAuditRequest{
			Providers: []ProviderWire{
				{Name: "a", Components: []string{"c1", "c2"}},
				{Name: "b", Components: []string{"c2", "c3"}},
			},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*PrivateAuditRequest)
		wantErr string
	}{
		{"one provider", func(r *PrivateAuditRequest) { r.Providers = r.Providers[:1] }, "at least two providers"},
		{"negative bits", func(r *PrivateAuditRequest) { r.Bits = -1 }, "negative option"},
		{"negative minhash_m", func(r *PrivateAuditRequest) { r.MinHashM = -1 }, "negative option"},
		{"negative minhash_threshold", func(r *PrivateAuditRequest) { r.MinHashThreshold = -1 }, "negative option"},
		{"negative ks_blind_bits", func(r *PrivateAuditRequest) { r.KSBlindBits = -1 }, "negative option"},
		{"negative workers", func(r *PrivateAuditRequest) { r.Workers = -1 }, "negative option"},
		{"negative timeout", func(r *PrivateAuditRequest) { r.TimeoutMS = -1 }, "negative option"},
		{"unknown protocol", func(r *PrivateAuditRequest) { r.Protocol = "magic" }, `unknown protocol "magic"`},
		{"bits too small", func(r *PrivateAuditRequest) { r.Bits = 64 }, "too small"},
		{"unnamed provider", func(r *PrivateAuditRequest) { r.Providers[1].Name = "" }, "has no name"},
		{"duplicate provider", func(r *PrivateAuditRequest) { r.Providers[1].Name = "a" }, `duplicate provider "a"`},
		{"empty component name", func(r *PrivateAuditRequest) { r.Providers[0].Components = []string{"c1", ""} }, "empty component name"},
		{"reference without registry", func(r *PrivateAuditRequest) { r.Providers[0].Components = nil }, "no registry is available"},
		{"single-provider deployment", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a"}} }, "at least two providers"},
		{"deployment with unknown provider", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a", "zz"}} }, `unknown provider "zz"`},
		{"deployment repeats provider", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a", "a"}} }, `lists provider "a" twice`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid()
			tc.mutate(req)
			if _, _, _, _, err := req.normalize(nil); err == nil {
				t.Fatal("normalize accepted an invalid request")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// An unknown reference with a registry present names the provider.
	ref := valid()
	ref.Providers[0].Components = nil
	lookup := func(string) ([]string, string, bool) { return nil, "", false }
	if _, _, _, _, err := ref.normalize(lookup); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unknown reference error = %v", err)
	}
}

// TestPrivateAuditNormalizeDefaults pins the canonical form: protocol and
// key-size defaults land in the key, parallelism and titles stay out of it,
// and deployment lists canonicalize order-insensitively.
func TestPrivateAuditNormalizeDefaults(t *testing.T) {
	base := &PrivateAuditRequest{
		Providers: []ProviderWire{
			{Name: "b", Components: []string{"c2", "c3"}},
			{Name: "a", Components: []string{"c1", "c2"}},
			{Name: "c", Components: []string{"c4"}},
		},
	}
	n, cfg, provs, deps, err := base.normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Protocol != "p-sop" || n.Bits != 512 || cfg.Bits != 512 {
		t.Fatalf("defaults: %+v", n)
	}
	if len(provs) != 3 || provs[0].Name != "a" || provs[2].Name != "c" {
		t.Fatalf("providers not sorted: %+v", provs)
	}
	if len(deps) != 3 { // empty deployment list means every pair
		t.Fatalf("all-pairs expansion: %+v", deps)
	}

	// Title, workers and timeout never reach the key; deployment order and
	// intra-deployment name order do not either.
	key := n.key()
	noisy := &PrivateAuditRequest{
		Title:     "different title",
		Providers: base.Providers,
		Deployments: [][]string{
			{"c", "b"}, {"b", "a"}, {"c", "a"}, {"a", "b"},
		},
		Workers:   7,
		TimeoutMS: 9999,
	}
	n2, _, _, _, err := noisy.normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2.key() != key {
		t.Fatalf("key drifted on non-semantic fields:\n%s\nvs\n%s", n2.key(), key)
	}

	// KS always estimates via MinHash: the default m is pinned into the key.
	ks := &PrivateAuditRequest{Providers: base.Providers, Protocol: "ks"}
	nks, cfgKS, _, _, err := ks.normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if nks.MinHashM != 512 || cfgKS.MinHashM != 512 {
		t.Fatalf("ks minhash default: %+v", nks)
	}

	// Cleartext ignores bits entirely, so it cannot split the key space.
	c1 := &PrivateAuditRequest{Providers: base.Providers, Protocol: "cleartext"}
	c2 := &PrivateAuditRequest{Providers: base.Providers, Protocol: "cleartext", Bits: 2048}
	nc1, _, _, _, err1 := c1.normalize(nil)
	nc2, _, _, _, err2 := c2.normalize(nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if nc1.key() != nc2.key() {
		t.Fatal("cleartext bits leaked into the cache key")
	}
}
