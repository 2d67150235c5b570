package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recommendRecords is a six-server pool: two per ToR, ToRs uplinked through
// shared cores, disks in three shared batches — the same correlated traps
// as the placement package's fixtures, as wire records.
func recommendRecords() []RecordWire {
	var out []RecordWire
	tors := []string{"ToR1", "ToR1", "ToR2", "ToR2", "ToR3", "ToR3"}
	batches := []string{"batch-0", "batch-1", "batch-2", "batch-0", "batch-1", "batch-2"}
	names := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	for i, name := range names {
		out = append(out,
			RecordWire{Kind: "network", Src: name, Dst: "Internet", Route: []string{tors[i], "Core1"}},
			RecordWire{Kind: "network", Src: name, Dst: "Internet", Route: []string{tors[i], "Core2"}},
			RecordWire{Kind: "hardware", HW: name, Type: "Disk", Dep: batches[i]},
		)
	}
	return out
}

func recommendRequest(title string) *RecommendRequest {
	return &RecommendRequest{
		Title:    title,
		Records:  recommendRecords(),
		Replicas: 2,
		TopK:     3,
		Strategy: "exact",
	}
}

// TestRecommendEndToEnd drives submit → poll → result over real HTTP and
// pins the ranking JSON to a golden file shared with scripts/smoke.sh.
func TestRecommendEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := c.Recommend(ctx, recommendRequest("recommend smoke"))
	if err != nil {
		t.Fatal(err)
	}
	end, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if end.State != StateDone {
		t.Fatalf("job finished %s (%s)", end.State, end.Error)
	}
	res, err := c.RecommendResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	compareRecommendGolden(t, res, filepath.Join("testdata", "e2e_recommend_golden.json"))

	// Structure sanity on top of the golden: the optimum crosses ToRs and
	// disk batches, so no size-1 risk group survives.
	if res.Strategy != "exact" || res.TotalCandidates != 15 || res.Evaluated != 15 {
		t.Fatalf("unexpected search shape: %+v", res)
	}
	if len(res.Rankings) != 3 {
		t.Fatalf("want top-3, got %d", len(res.Rankings))
	}
	if top := res.Rankings[0]; top.Unexpected != 0 || top.SizeVector[0] != 0 {
		t.Fatalf("optimum must have no size-1 RGs: %+v", top)
	}

	// An identical resubmission is a content-addressed cache hit carrying
	// its own title.
	again, err := c.Recommend(ctx, recommendRequest("same search, new title"))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != StateDone || again.CacheKey != st.CacheKey {
		t.Fatalf("identical recommendation must hit the cache: %+v", again)
	}
	res2, err := c.RecommendResult(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Title != "same search, new title" {
		t.Fatalf("per-job title lost: %q", res2.Title)
	}

	// Recommendation counters surface in /metrics.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "auditd_recommendations_total 2") {
		t.Errorf("metrics missing recommendation counter:\n%s", text)
	}
}

// TestRecommendAndAuditKeysDisjoint: a recommendation and an audit over the
// same records must never collide in the content-addressed cache.
func TestRecommendAndAuditKeysDisjoint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	rec, err := s.Recommend(recommendRequest("r"))
	if err != nil {
		t.Fatal(err)
	}
	aud, err := s.Submit(&SubmitRequest{
		Records:     recommendRecords(),
		Deployments: []DeploymentWire{{Name: "d", Servers: []string{"n1", "n2"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CacheKey == aud.CacheKey {
		t.Fatal("audit and recommendation cache keys collide")
	}
	waitDone(t, s, rec.ID)
	waitDone(t, s, aud.ID)
	// The typed report accessor refuses the recommendation job.
	if _, err := s.Report(rec.ID); httpStatus(err) != 409 {
		t.Fatalf("Report on a recommendation job: want 409, got %v", err)
	}
	if _, err := s.Report(aud.ID); err != nil {
		t.Fatalf("Report on the audit job: %v", err)
	}
}

// TestRecommendCancellation: canceling an in-flight recommendation releases
// its worker — the placement search observes the context through its
// batch-parallel scorers.
func TestRecommendCancellation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	slow := recommendRequest("slow")
	slow.Algorithm = "failure-sampling"
	slow.Rounds = 2_000_000_000 // can only end by cancellation
	st, err := s.Recommend(slow)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		js, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recommendation never started: %+v", js)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	quick := mustSubmit(t, s, quickRequest("after-cancel"))
	if end := waitDone(t, s, quick.ID); end.State != StateDone {
		t.Fatalf("post-cancel job finished %s (%s)", end.State, end.Error)
	}
}

// TestIngestThenRecommend: records pushed through /v1/depdb are immediately
// searchable — the "recommend against freshly pushed data" flow.
func TestIngestThenRecommend(t *testing.T) {
	s := New(Config{Workers: 2}) // note: no preloaded DB
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Before any ingest, a record-less recommendation has nothing to run on.
	empty := &RecommendRequest{Replicas: 2}
	if _, err := c.Recommend(ctx, empty); httpStatus(err) != 400 {
		t.Fatalf("recommend without data: want 400, got %v", err)
	}

	records := recommendRecords()
	resp, err := c.Ingest(ctx, records[:9]) // n1..n3
	if err != nil {
		t.Fatal(err)
	}
	if resp.Added != 9 || resp.Total != 9 || resp.Fingerprint == "" {
		t.Fatalf("first ingest: %+v", resp)
	}
	resp2, err := c.Ingest(ctx, records[9:]) // n4..n6
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Added != 9 || resp2.Total != 18 || resp2.Fingerprint == resp.Fingerprint {
		t.Fatalf("second ingest must grow the fingerprint: %+v", resp2)
	}

	// A pool or a fixed node naming a server without records is refused at
	// submission, not failed as a job.
	for _, bad := range []*RecommendRequest{
		{Replicas: 2, Nodes: []string{"n1", "ghost"}},
		{Replicas: 2, Fixed: []string{"ghost"}},
	} {
		if _, err := c.Recommend(ctx, bad); httpStatus(err) != 400 || !strings.Contains(err.Error(), `no dependency records for server "ghost"`) {
			t.Fatalf("recommend %+v: want 400 naming ghost, got %v", bad, err)
		}
	}

	// A pool-less recommendation resolves its candidates from the ingested
	// subjects and matches the inline-records run bit for bit.
	st, err := c.Recommend(ctx, &RecommendRequest{Replicas: 2, TopK: 3, Strategy: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if end, err := c.WaitDone(ctx, st.ID); err != nil || end.State != StateDone {
		t.Fatalf("ingested recommend: %v %+v", err, end)
	}
	res, err := c.RecommendResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := c.Recommend(ctx, recommendRequest("inline"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, inline.ID); err != nil {
		t.Fatal(err)
	}
	resInline, err := c.RecommendResult(ctx, inline.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rankings) != len(resInline.Rankings) {
		t.Fatalf("ingested vs inline rankings differ in length")
	}
	for i := range res.Rankings {
		a, b := res.Rankings[i], resInline.Rankings[i]
		if strings.Join(a.Nodes, ",") != strings.Join(b.Nodes, ",") {
			t.Fatalf("rank %d: ingested %v vs inline %v", i+1, a.Nodes, b.Nodes)
		}
	}

	// Ingest rejections: empty and malformed payloads, all-or-nothing.
	if _, err := c.Ingest(ctx, nil); httpStatus(err) != 400 {
		t.Fatalf("empty ingest: want 400, got %v", err)
	}
	bad := []RecordWire{
		{Kind: "network", Src: "ok", Dst: "Internet", Route: []string{"x"}},
		{Kind: "router"},
	}
	if _, err := c.Ingest(ctx, bad); httpStatus(err) != 400 {
		t.Fatalf("malformed ingest: want 400, got %v", err)
	}
	after, err := c.Ingest(ctx, records[:3])
	if err != nil {
		t.Fatal(err)
	}
	// The three re-ingested records say what the database already says: all
	// accepted, nothing changed. A row leaked from the rejected batch would
	// show as a nineteenth record under another fingerprint.
	if after.Added != 3 || after.Total != 18 || after.Fingerprint != resp2.Fingerprint {
		t.Fatalf("re-ingest after a rejected batch: %+v, want 18 records under %s", after, resp2.Fingerprint)
	}
}

// compareRecommendGolden pins a recommendation's JSON to a golden file with
// the elapsed time zeroed (the only nondeterministic field).
func compareRecommendGolden(t *testing.T, res *RecommendResponse, golden string) {
	t.Helper()
	norm := *res
	norm.ElapsedNS = 0
	got, err := json.MarshalIndent(&norm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/auditd -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recommendation drifted from %s.\ngot:\n%s", golden, got)
	}
}
