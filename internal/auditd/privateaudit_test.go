package auditd

// Private-audit (PIA) service tests: the registry round-trip, the served
// audit path with fingerprint-addressed caching, registry durability across
// restarts, journal recovery of in-flight private audits, and the NaN-safe
// wire encoding.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"indaas/internal/report"
	"indaas/internal/store"
)

// testPrivateAuditRequest references the registered "left"/"right" datasets
// by name: the request itself carries no components.
func testPrivateAuditRequest(title string) *PrivateAuditRequest {
	return &PrivateAuditRequest{
		Title:     title,
		Providers: []ProviderWire{{Name: "left"}, {Name: "right"}},
	}
}

func registerTestProviders(t *testing.T, s *Server) {
	t.Helper()
	for name, comps := range map[string][]string{
		"left":  {"pkg:a", "pkg:b", "pkg:c", "pkg:shared"},
		"right": {"pkg:x", "pkg:y", "pkg:shared"},
	} {
		if _, err := s.RegisterProvider(&RegisterProviderRequest{Name: name, Components: comps}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrivateAuditServed drives the full served flow through the HTTP API
// and Client: register datasets, audit them by reference — the daemon holds
// both, so it counts in cleartext and says so in the job's trace — read the
// ranked result, then resubmit and require a cache hit: the fingerprints did
// not change, so nothing may be recounted.
func TestPrivateAuditServed(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, http.DefaultClient)
	ctx := context.Background()

	if _, err := c.RegisterProvider(ctx, "left", []string{"pkg:a", "pkg:b", "pkg:c", "pkg:shared"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterProvider(ctx, "right", []string{"pkg:x", "pkg:y", "pkg:shared"}); err != nil {
		t.Fatal(err)
	}
	provs, err := c.Providers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(provs) != 2 || provs[0].Name != "left" || provs[0].Components != 4 || provs[0].Fingerprint == "" {
		t.Fatalf("providers = %+v", provs)
	}

	st, err := c.PrivateAudit(ctx, testPrivateAuditRequest("served"))
	if err != nil {
		t.Fatal(err)
	}
	end, err := c.WaitDone(ctx, st.ID)
	if err != nil || end.State != StateDone {
		t.Fatalf("WaitDone = %+v, %v", end, err)
	}
	if tc := end.TraceCounts; tc["pia_cleartext_deployments"] != 1 || tc["pia_psop_deployments"] != 0 || tc["psop_bytes_sent"] != 0 {
		t.Fatalf("trace counts = %v, want one cleartext deployment and no ring", tc)
	}
	res, err := c.PrivateAuditResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// |{shared}| / |{a,b,c,x,y,shared}| = 1/6.
	if res.Pairs != 1 || len(res.Entries) != 1 || res.Entries[0].Jaccard == nil {
		t.Fatalf("result = %+v", res)
	}
	if got := *res.Entries[0].Jaccard; math.Abs(got-1.0/6) > 1e-9 {
		t.Fatalf("jaccard = %v, want 1/6", got)
	}
	if res.Title != "served" {
		t.Fatalf("result title = %q", res.Title)
	}

	// The wrong-kind guards on the shared result endpoint.
	if _, err := c.Report(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "PrivateAuditResult") {
		t.Fatalf("Report on a private audit = %v", err)
	}
	if _, err := c.RecommendResult(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "PrivateAuditResult") {
		t.Fatalf("RecommendResult on a private audit = %v", err)
	}

	// Identical resubmission: answered from cache, nothing recomputed, and
	// the shared bytes go out under the new job's title.
	before := s.Stats()
	st2, err := c.PrivateAudit(ctx, testPrivateAuditRequest("served again"))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached || st2.CacheKey != st.CacheKey {
		t.Fatalf("resubmit = %+v, want a done cache hit on %s", st2, st.CacheKey)
	}
	after := s.Stats()
	if after.Computations != before.Computations {
		t.Fatalf("resubmit recomputed: %d → %d", before.Computations, after.Computations)
	}
	res2, err := c.PrivateAuditResult(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Title != "served again" || res.Title != "served" {
		t.Fatalf("titles leaked between jobs sharing one result: %q / %q", res2.Title, res.Title)
	}
	if after.PrivateAudits != 2 || after.PrivatePairs != 1 {
		t.Fatalf("PrivateAudits=%d PrivatePairs=%d, want 2/1", after.PrivateAudits, after.PrivatePairs)
	}

	// The counters surface on /metrics under compliant names.
	var buf bytes.Buffer
	writeMetrics(&buf, s.Stats().rows())
	for _, want := range []string{"auditd_private_audits_total 2", "auditd_private_pairs_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestPrivateAuditInlineSharesCacheKey: an inline submission of the same
// datasets under the same names addresses the same cached result — the key
// hashes fingerprints, not transport.
func TestPrivateAuditInlineSharesCacheKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	registerTestProviders(t, s)

	st, err := s.PrivateAudit(testPrivateAuditRequest("by reference"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	inline := testPrivateAuditRequest("inline")
	inline.Providers = []ProviderWire{
		// Unsorted components and a duplicate: normalization canonicalizes.
		{Name: "right", Components: []string{"pkg:y", "pkg:shared", "pkg:x", "pkg:y"}},
		{Name: "left", Components: []string{"pkg:shared", "pkg:c", "pkg:b", "pkg:a"}},
	}
	st2, err := s.PrivateAudit(inline)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.CacheKey != st.CacheKey {
		t.Fatalf("inline submission missed the cache: %+v vs key %s", st2, st.CacheKey)
	}
}

// TestRegisterProviderErrors pins the registry's rejection paths.
func TestRegisterProviderErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	cases := []struct {
		name string
		req  RegisterProviderRequest
		want string
	}{
		{"empty name", RegisterProviderRequest{Components: []string{"a"}}, "needs a name"},
		{"slash in name", RegisterProviderRequest{Name: "a/b", Components: []string{"a"}}, "may not contain"},
		{"empty set", RegisterProviderRequest{Name: "p"}, "empty component-set"},
		{"empty component", RegisterProviderRequest{Name: "p", Components: []string{"a", ""}}, "empty component name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.RegisterProvider(&tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if code := httpStatus(err); code != 400 {
				t.Fatalf("status = %d, want 400", code)
			}
		})
	}
}

// TestPrivateAuditRegistryRestart: registered datasets and cached private
// audits survive a restart — the registry reloads from KindMeta records and
// a resubmitted audit disk-hits instead of recomputing.
func TestPrivateAuditRegistryRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	registerTestProviders(t, s1)
	j, err := s1.PrivateAudit(testPrivateAuditRequest("before restart"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, j.ID)
	gracefulShutdown(t, s1)

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	provs := s2.Providers()
	if len(provs) != 2 || provs[0].Name != "left" || provs[1].Name != "right" {
		t.Fatalf("restored providers = %+v", provs)
	}

	st, err := s2.PrivateAudit(testPrivateAuditRequest("after restart"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("post-restart resubmit = %+v, want a disk hit", st)
	}
	stats := s2.Stats()
	if stats.Computations != 0 || stats.StoreHits != 1 {
		t.Fatalf("computations=%d storeHits=%d, want 0/1", stats.Computations, stats.StoreHits)
	}
	res, err := s2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pr, ok := res.(*PrivateAuditResponse); !ok || pr.Title != "after restart" {
		t.Fatalf("restored result = %#v", res)
	}
}

// TestPrivateAuditJournalRecovery: a private audit accepted before a crash
// is replayed at the next boot under its original id — which requires the
// provider registry to restore before the journal replays.
func TestPrivateAuditJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1) // cancels the parked computation at test end
	registerTestProviders(t, s1)

	first, err := s1.PrivateAudit(testPrivateAuditRequest("crash-me"))
	if err != nil {
		t.Fatal(err)
	}
	if first.State == StateDone {
		t.Fatalf("job settled before the crash: %+v", first)
	}
	if err := st1.Close(); err != nil { // emulate kill -9
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	n, err := s2.RecoverJobs()
	if err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v; want 1 job", n, err)
	}
	done := waitDone(t, s2, first.ID)
	if done.State != StateDone || !done.Recovered {
		t.Fatalf("recovered job = %+v, want done+recovered", done)
	}
	res, err := s2.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := res.(*PrivateAuditResponse)
	if !ok || len(pr.Entries) != 1 || pr.Entries[0].Jaccard == nil {
		t.Fatalf("recovered result = %#v", res)
	}
	if got := *pr.Entries[0].Jaccard; math.Abs(got-1.0/6) > 1e-9 {
		t.Fatalf("recovered jaccard = %v, want 1/6", got)
	}
	waitNoJournal(t, st2)
}

// TestPrivateAuditRecoversParentJournal: a journal record written before the
// request lost its protocol options — a "ks" audit estimated from 64-function
// MinHash signatures — is replayed at boot, and the options it still carries
// are ignored: the job completes with the exact Jaccard of the held sets.
func TestPrivateAuditRecoversParentJournal(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	registerTestProviders(t, s1)
	gracefulShutdown(t, s1)

	st2 := openStore(t, dir)
	record := `{"kind":"private-audit","request":{"title":"crash-me","providers":[{"name":"left"},{"name":"right"}],"protocol":"ks","minhash_m":64}}`
	if _, err := st2.Put(journalKey("job-000007"), store.KindJob, []byte(record)); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v; want 1 job", n, err)
	}
	done := waitDone(t, s2, "job-000007")
	if done.State != StateDone || !done.Recovered {
		t.Fatalf("recovered job = %+v, want done+recovered", done)
	}
	res, err := s2.Result("job-000007")
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := res.(*PrivateAuditResponse)
	if !ok || len(pr.Entries) != 1 || pr.Entries[0].Jaccard == nil || *pr.Entries[0].Jaccard != 1.0/6 {
		t.Fatalf("recovered result = %#v, want the exact Jaccard 1/6", res)
	}
	waitNoJournal(t, st2)
}

// TestPrivateAuditResponseGoldenJSON pins the wire encoding against a
// golden file — a ring's byte count stays off it — including the NaN paths: a NaN Jaccard and a zero-elapsed
// throughput are omitted rather than emitted (encoding/json rejects NaN),
// and the encoding round-trips.
func TestPrivateAuditResponseGoldenJSON(t *testing.T) {
	rep := &report.PIAReport{Entries: []report.PIAEntry{
		{Providers: []string{"left", "right"}, Jaccard: 0.25,
			BytesSent: 4096, Elapsed: 5 * time.Millisecond},
		{Providers: []string{"left", "mid"}, Jaccard: math.NaN()},
	}}
	infos := []ProviderInfo{
		{Name: "left", Fingerprint: "fp-left", Components: 4},
		{Name: "mid", Fingerprint: "fp-mid", Components: 2},
		{Name: "right", Fingerprint: "fp-right", Components: 3},
	}
	res := privateAuditResponseFromReport(rep, infos, 2*time.Second)
	res.Title = "golden"

	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "private_audit_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire encoding drifted from %s (UPDATE_GOLDEN=1 to regenerate):\n%s", golden, got)
	}

	var back PrivateAuditResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Entries[1].Jaccard != nil {
		t.Fatalf("NaN jaccard round-tripped as %v, want omitted", *back.Entries[1].Jaccard)
	}
	if back.Entries[0].Jaccard == nil || *back.Entries[0].Jaccard != 0.25 {
		t.Fatalf("entry 0 mangled: %+v", back.Entries[0])
	}
	if back.PairsPerSec == nil || *back.PairsPerSec != 1 {
		t.Fatalf("pairs_per_sec = %v, want 1", back.PairsPerSec)
	}

	// Zero elapsed: the rate is +Inf and must be omitted, not encoded.
	instant := privateAuditResponseFromReport(rep, infos, 0)
	if instant.PairsPerSec != nil {
		t.Fatalf("zero-elapsed PairsPerSec = %v, want nil", *instant.PairsPerSec)
	}
	if _, err := json.Marshal(instant); err != nil {
		t.Fatalf("zero-elapsed response does not encode: %v", err)
	}
}

// TestPrivateAuditRecoveryMatchesCleanRun: the journal replay produces
// byte-identical results (elapsed aside) to an uninterrupted run.
func TestPrivateAuditRecoveryMatchesCleanRun(t *testing.T) {
	clean := New(Config{Workers: 1})
	defer shutdown(t, clean)
	registerTestProviders(t, clean)
	j, err := clean.PrivateAudit(testPrivateAuditRequest("clean"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean, j.ID)
	cleanRes, err := clean.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1)
	registerTestProviders(t, s1)
	if _, err := s1.PrivateAudit(testPrivateAuditRequest("clean")); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v", n, err)
	}
	waitDone(t, s2, "job-000001")
	recRes, err := s2.Result("job-000001")
	if err != nil {
		t.Fatal(err)
	}

	elapsed := regexp.MustCompile(`"(elapsed_ns|pairs_per_sec)":[0-9.eE+-]+,?`)
	norm := func(v any) string {
		b, _ := json.Marshal(v)
		return elapsed.ReplaceAllString(string(b), "")
	}
	if got, want := norm(recRes), norm(cleanRes); got != want {
		t.Fatalf("recovered result diverges:\n%s\nvs\n%s", got, want)
	}
}
