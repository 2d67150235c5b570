package auditd

import (
	"net/http"
	"net/http/httptest"
	"runtime"
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
// documented defaults explicitly so they land in the key; the worker count,
// which changes only speed, reaches the sia options alone.
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
	if n.Rounds != 100_000 || n.Seed != 1 {
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
		{"separator at a name's first byte", RecordWire{Kind: "network", Src: "\x1fs1", Dst: "b", Route: []string{"x"}}},
		{"separator at a name's last byte", RecordWire{Kind: "software", Pgm: "p", HW: "h", Deps: []string{"libc6\x1e"}}},
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
// PrivateAuditRequest.normalize with the message fragment a client sees, and
// that a body setting an option the request no longer has — where a dataset
// lives picks the protocol — is a 400 naming the field.
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
		{"negative workers", func(r *PrivateAuditRequest) { r.Workers = -1 }, "negative option"},
		{"negative timeout", func(r *PrivateAuditRequest) { r.TimeoutMS = -1 }, "negative option"},
		{"unnamed provider", func(r *PrivateAuditRequest) { r.Providers[1].Name = "" }, "has no name"},
		{"duplicate provider", func(r *PrivateAuditRequest) { r.Providers[1].Name = "a" }, `duplicate provider "a"`},
		{"empty component name", func(r *PrivateAuditRequest) { r.Providers[0].Components = []string{"c1", ""} }, "empty component name"},
		{"reference without registry", func(r *PrivateAuditRequest) { r.Providers[0].Components = nil }, `unknown provider "a" (not registered`},
		{"single-provider deployment", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a"}} }, "at least two providers"},
		{"deployment with unknown provider", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a", "zz"}} }, `unknown provider "zz"`},
		{"deployment repeats provider", func(r *PrivateAuditRequest) { r.Deployments = [][]string{{"a", "a"}} }, `lists provider "a" twice`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid()
			tc.mutate(req)
			if _, _, _, _, err := req.normalize(noProviders); err == nil {
				t.Fatal("normalize accepted an invalid request")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	const providers = `"providers":[{"name":"a","components":["c1","c2"]},{"name":"b","components":["c2","c3"]}]`
	for _, tc := range []struct{ name, option, field string }{
		{"negative bits", `"bits":-1`, "bits"},
		{"negative minhash_m", `"minhash_m":-1`, "minhash_m"},
		{"negative minhash_threshold", `"minhash_threshold":-1`, "minhash_threshold"},
		{"negative ks_blind_bits", `"ks_blind_bits":-1`, "ks_blind_bits"},
		{"unknown protocol", `"protocol":"magic"`, "protocol"},
		{"bits too small", `"protocol":"ks","bits":64`, "protocol"},
		{"p-sop", `"protocol":"p-sop"`, "protocol"},
		{"minhash", `"minhash_m":64`, "minhash_m"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			body := "{" + providers + "," + tc.option + "}"
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/private-audits", strings.NewReader(body)))
			if w.Code != 400 || !strings.Contains(w.Body.String(), `unknown field \"`+tc.field+`\"`) {
				t.Fatalf("%s: %d %s, want a 400 naming %q", body, w.Code, w.Body, tc.field)
			}
		})
	}
	if n := s.Stats().PrivateAudits; n != 0 {
		t.Fatalf("%d refused bodies were accepted as private audits", n)
	}
}

// noProviders is a provider registry that holds nothing.
func noProviders(string) (registeredProvider, bool) { return registeredProvider{}, false }

// TestPrivateAuditNormalizeDefaults pins the canonical form: providers and
// deployments are the whole key, parallelism and titles stay out of it, and
// deployment lists canonicalize order-insensitively.
func TestPrivateAuditNormalizeDefaults(t *testing.T) {
	base := &PrivateAuditRequest{
		Providers: []ProviderWire{
			{Name: "b", Components: []string{"c2", "c3"}},
			{Name: "a", Components: []string{"c1", "c2"}},
			{Name: "c", Components: []string{"c4"}},
		},
	}
	n, _, provs, deps, err := base.normalize(noProviders)
	if err != nil {
		t.Fatal(err)
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
	n2, _, _, _, err := noisy.normalize(noProviders)
	if err != nil {
		t.Fatal(err)
	}
	if n2.key() != key {
		t.Fatalf("key drifted on non-semantic fields:\n%s\nvs\n%s", n2.key(), key)
	}
}

// TestPrivateAuditWorkersZeroIsOnePerCPU: workers 0 means one per CPU, as
// the request doc says, not pia's sequential single worker — and, like every
// other parallelism setting, it leaves the content address where it was.
func TestPrivateAuditWorkersZeroIsOnePerCPU(t *testing.T) {
	const pinned = "e9357115a91a05e58401ea7f379505471bb3bc9f889b56f4a12169d1a00492df"
	for _, workers := range []int{0, 1, 3} {
		req := &PrivateAuditRequest{
			Providers: []ProviderWire{{Name: "a", Components: []string{"c1", "c2"}}, {Name: "b", Components: []string{"c2", "c3"}}},
			Workers:   workers,
		}
		n, cfg, _, _, err := req.normalize(noProviders)
		if err != nil {
			t.Fatal(err)
		}
		want := workers
		if workers == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if cfg.Workers != want {
			t.Errorf("workers %d ran %d pia workers, want %d", workers, cfg.Workers, want)
		}
		if got := n.key(); got != pinned {
			t.Errorf("workers %d moved the address to %s, want %s", workers, got, pinned)
		}
	}
}
