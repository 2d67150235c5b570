package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"indaas/internal/report"
	"indaas/internal/store"
)

// The report read path: daemon encode → HTTP → client decode. These tests
// pin its failure modes, its wrong-kind errors and its allocation shape;
// the benchmarks at the bottom are its two go-test rungs.

// upgradeFixtureReport is the report whose PR 12 store encoding is committed
// as testdata/stored_result_pr12.json: every codec special case at once.
func upgradeFixtureReport() *report.Report {
	return &report.Report{
		Title: "stored by PR 12 <&> \"quoted\" ünï",
		Audits: []report.DeploymentAudit{
			{
				Deployment: "weighted a->b", Sources: []string{"s1", "s2"}, Expected: 2,
				RGs: []report.RGEntry{
					{Components: []string{"ToR1"}, Size: 1, Prob: 0.01, Importance: 0.9901970492127933},
					{Components: []string{"Core1", "Core2"}, Size: 2, Prob: 1e-4, Importance: 0},
				},
				Unexpected: 1, Score: 1.0000990197049213, ScoreTopN: 2, FailureProb: 0.010099,
				Algorithm: "minimal-rg", Elapsed: 1234567 * time.Nanosecond,
			},
			{
				Deployment: "unweighted", Sources: []string{}, Expected: 2,
				RGs: []report.RGEntry{
					{Components: []string{"libc6", "<openssl>"}, Size: 2, Prob: math.NaN(), Importance: math.NaN()},
					{Components: nil, Size: 0, Prob: math.NaN(), Importance: 0.5},
				},
				Unexpected: 0, Score: math.NaN(), ScoreTopN: 1, FailureProb: math.NaN(),
				Algorithm: "failure-sampling", Elapsed: 2 * time.Millisecond, Truncated: true,
			},
			{Deployment: "no rgs", Sources: nil, RGs: nil, Score: 0, FailureProb: 0, Algorithm: "minimal-rg"},
			{Deployment: "empty rgs", Sources: []string{"s9"}, RGs: []report.RGEntry{}, Score: 3, FailureProb: math.NaN()},
		},
	}
}

// servedBytes is what the report route writes for res under title: the
// title head, then the stored bytes.
func servedBytes(res *EncodedResult, title string) []byte {
	return append(res.head(title), res.obj[1:]...)
}

// legacyEnvelope is the disk envelope as the pre-bytes store codec wrote it
// (kept here as the format's reference): the payload struct marshaled, then
// wrapped in {"kind","payload"} by a second marshal.
func legacyEnvelope(t *testing.T, kind string, res any) []byte {
	t.Helper()
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}{kind, payload})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStoredResultFromPR12Decodes: a result record written by PR 12's store
// codec (nested marshalers, and a payload stored under an escaped, non-empty
// title) is adopted by slicing, decodes to the same report, and is served —
// under any job's title — byte-identical to a fresh encode, so old data
// directories stay readable and content-stable across the upgrade. %#v is
// the comparison form: it prints NaN as NaN and tells nil slices from empty
// ones.
func TestStoredResultFromPR12Decodes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "stored_result_pr12.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := upgradeFixtureReport()
	if !bytes.Equal(blob, legacyEnvelope(t, KindAudit, want)) {
		t.Fatal("the fixture is no longer what the legacy codec writes for upgradeFixtureReport()")
	}
	stored, err := parseEnvelope(bytes.Clone(blob))
	if err != nil {
		t.Fatal(err)
	}
	res, err := stored.Decode(want.Title)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", res), fmt.Sprintf("%#v", want); got != want {
		t.Errorf("decoded report differs.\ngot:  %s\nwant: %s", got, want)
	}
	fresh, err := encodeResult(auditKind, want)
	if err != nil {
		t.Fatal(err)
	}
	if stored.kind != fresh.kind || !bytes.Equal(stored.obj, fresh.obj) {
		t.Errorf("stored bytes differ from a fresh encode.\ngot:  %s\nwant: %s", stored.obj, fresh.obj)
	}
	line, _ := json.Marshal(want)
	if got := servedBytes(stored, want.Title); string(got) != string(line)+"\n" {
		t.Errorf("served under its old title:\ngot:  %s\nwant: %s", got, line)
	}
	// Written back, the record is the legacy envelope of the untitled report
	// — titles belong to jobs — and reads back to the same bytes.
	untitled := *want
	untitled.Title = ""
	again := stored.envelope()
	if !bytes.Equal(again, legacyEnvelope(t, KindAudit, &untitled)) {
		t.Errorf("re-written envelope is not the legacy format: %s", again)
	}
	if back, err := parseEnvelope(again); err != nil || !bytes.Equal(back.obj, stored.obj) {
		t.Errorf("re-written envelope reads back differently: %v", err)
	}
}

// corruptingExecutor is the local pool with every finished report made
// unencodable: +Inf is the one float the report codec does not cover.
type corruptingExecutor struct{ Executor }

func (e corruptingExecutor) Submit(ctx context.Context, w *Workload, cb ExecCallbacks) error {
	done := cb.Done
	cb.Done = func(res any, err error) {
		if rep, ok := res.(*report.Report); ok {
			rep.Audits[0].RGs[0].Prob = math.Inf(1)
		}
		done(res, err)
	}
	return e.Executor.Submit(ctx, w, cb)
}

// TestResponsesAreCompactWithContentLength pins the response shape of the
// byte path — one compact JSON line, Content-Length matching it, the job's
// title in front of bytes no codec touched — and where an unencodable result
// now surfaces: when its computation completes, as a failed job naming the
// encode, with nothing cached or persisted, never as a 500 on a later read.
func TestResponsesAreCompactWithContentLength(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	good, err := encodeResult(auditKind, upgradeFixtureReport())
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put("good", good)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: headers %v for a %d-byte body", path, resp.Header, len(body))
		}
		return resp, body
	}

	// The cache route serves the stored bytes untitled.
	untitled := upgradeFixtureReport()
	untitled.Title = ""
	want, _ := json.Marshal(untitled)
	resp, body := get("/v1/cache/good")
	if resp.StatusCode != 200 || string(body) != string(want)+"\n" {
		t.Fatalf("cache read: HTTP %d, body is not the compact encoding plus a newline:\n%s", resp.StatusCode, body)
	}
	// The report route serves them under the job's own title.
	job := mustSubmit(t, s, quickRequest(`a "quoted" <title> & ünï`))
	waitDone(t, s, job.ID)
	rep, err := s.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = json.Marshal(rep)
	resp, body = get("/v1/audits/" + job.ID + "/report")
	if resp.StatusCode != 200 || string(body) != string(want)+"\n" {
		t.Fatalf("report read: HTTP %d, body is not the titled compact encoding plus a newline:\n%s\nwant %s", resp.StatusCode, body, want)
	}
	st := s.Stats()
	if st.ResultEncode.Count() != 1 || st.ResultBytes != int64(len(want)+1+len(string(mustJSON(t, untitled)))+1) {
		t.Fatalf("result metrics: %d encodes (want the one computation), %d bytes served", st.ResultEncode.Count(), st.ResultBytes)
	}

	// An unencodable result fails its job at completion, on a durable daemon
	// too: the store sees neither the result nor a lingering journal record.
	dir := t.TempDir()
	stor, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer stor.Close()
	bad := New(Config{Workers: 1, Store: stor, Cluster: &fakeCluster{exec: func(local Executor) Executor { return corruptingExecutor{local} }}})
	defer shutdown(t, bad)
	end := waitDone(t, bad, mustSubmit(t, bad, quickRequest("unencodable")).ID)
	if end.State != StateFailed || !strings.Contains(end.Error, "encode result") {
		t.Fatalf("job with an unencodable result = %s %q, want failed naming the encode", end.State, end.Error)
	}
	if _, err := bad.Result(end.ID); httpStatus(err) != 409 {
		t.Fatalf("Result of the failed job: %v, want 409", err)
	}
	if _, err := bad.Cached(end.CacheKey); httpStatus(err) != 404 {
		t.Fatalf("the unencodable result was cached: %v", err)
	}
	for _, e := range stor.Entries() {
		if e.Kind == store.KindResult || e.Kind == store.KindJob {
			t.Fatalf("the store holds %q (kind %v) after an encode failure", e.Key, e.Kind)
		}
	}
	if st := bad.Stats(); st.Failed != 1 || st.CacheEntries != 0 || st.ResultEncode.Count() != 1 {
		t.Fatalf("after an encode failure: %d failed, %d cached, %d encodes", st.Failed, st.CacheEntries, st.ResultEncode.Count())
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestClientRejectsOversizedResponse: a body past maxResponseBody fails as
// such, with or without a Content-Length, instead of surfacing as a JSON
// syntax error on a silently cut-off body.
func TestClientRejectsOversizedResponse(t *testing.T) {
	defer func(old int64) { maxResponseBody = old }(maxResponseBody)
	maxResponseBody = 64
	payload := []byte(`{"id":"` + strings.Repeat("x", 200) + `"}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/audits/chunked" {
			w.Write(payload[:100])
			w.(http.Flusher).Flush() // forces chunked transfer: no Content-Length
			w.Write(payload[100:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	for _, id := range []string{"sized", "chunked"} {
		_, err := c.Status(context.Background(), id, 0)
		if err == nil || !strings.Contains(err.Error(), "response exceeds 64 bytes") {
			t.Errorf("%s: err = %v, want an explicit size error", id, err)
		}
	}
	maxResponseBody = int64(len(payload))
	if st, err := c.Status(context.Background(), "sized", 0); err != nil || len(st.ID) != 200 {
		t.Errorf("a body of exactly the cap: %v", err)
	}
}

// TestResultGettersWrongKindErrors runs every typed getter against a job of
// every kind on a real server: the matching getter answers, the other two
// fail with the exact message naming the right one. The kind-agnostic
// decoders return the matching concrete type.
func TestResultGettersWrongKindErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	registerTestProviders(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	done := func(st JobStatus, err error) JobStatus {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		end, err := c.WaitDone(ctx, st.ID)
		if err != nil || end.State != StateDone {
			t.Fatalf("job %s: %v %+v", st.ID, err, end)
		}
		return end
	}
	jobs := map[string]JobStatus{
		"audit":          done(c.Submit(ctx, quickRequest("kinds"))),
		"recommendation": done(c.Recommend(ctx, recommendRequest("kinds"))),
		"private-audit":  done(c.PrivateAudit(ctx, testPrivateAuditRequest("kinds"))),
	}
	getters := map[string]func(id string) (any, error){
		"audit":          func(id string) (any, error) { return c.Report(ctx, id) },
		"recommendation": func(id string) (any, error) { return c.RecommendResult(ctx, id) },
		"private-audit":  func(id string) (any, error) { return c.PrivateAuditResult(ctx, id) },
	}
	hint := map[string]string{
		"audit":          "an audit job; use Report",
		"recommendation": "a recommendation job; use RecommendResult",
		"private-audit":  "a private-audit job; use PrivateAuditResult",
	}
	wantType := map[string]string{
		"audit":          "*report.Report",
		"recommendation": "*auditd.RecommendResponse",
		"private-audit":  "*auditd.PrivateAuditResponse",
	}
	for jobKind, job := range jobs {
		for getterKind, get := range getters {
			res, err := get(job.ID)
			if getterKind == jobKind {
				if err != nil || fmt.Sprintf("%T", res) != wantType[jobKind] {
					t.Errorf("%s getter on its own job: %T, %v", getterKind, res, err)
				}
				continue
			}
			want := fmt.Sprintf("auditd: job %s is %s", job.ID, hint[jobKind])
			if err == nil || err.Error() != want {
				t.Errorf("%s getter on a %s job: err = %v, want %q", getterKind, jobKind, err, want)
			}
		}
		enc, err := c.CachedResult(ctx, job.CacheKey)
		if err != nil {
			t.Fatalf("CachedResult on a %s result: %v", jobKind, err)
		}
		if any1, err := enc.Decode(""); err != nil || fmt.Sprintf("%T", any1) != wantType[jobKind] {
			t.Errorf("CachedResult on a %s result decodes to %T, %v", jobKind, any1, err)
		}
		resp, err := http.Get(ts.URL + "/v1/audits/" + job.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		served, err := EncodedResultFromPayload(bytes.Clone(body))
		if err != nil {
			t.Fatalf("adopting a served %s body: %v", jobKind, err)
		}
		any2, err := served.Decode("kinds")
		again, _ := json.Marshal(any2)
		if err != nil || fmt.Sprintf("%T", any2) != wantType[jobKind] || string(again)+"\n" != string(body) {
			t.Errorf("a served %s body adopted by shape: %T, %v, re-encodes to %s", jobKind, any2, err, again)
		}
	}

	// Shapes no job produces: an object without another kind's markers is a
	// report, and anything that is not one JSON object is an error.
	for _, in := range []string{`{}`, `{"title":"t","audits":null}`, `{"audits":[],"rankings":[]}`} {
		enc, err := EncodedResultFromPayload([]byte(in))
		if err != nil || enc.kind != auditKind {
			t.Errorf("EncodedResultFromPayload(%s) = %+v, %v", in, enc, err)
		}
	}
	for _, in := range []string{`{"audits":`, `null`, `[]`, ``} {
		if enc, err := EncodedResultFromPayload([]byte(in)); err == nil {
			t.Errorf("EncodedResultFromPayload(%s) = %+v, want an error", in, enc)
		}
	}
}

// readPathServer boots a memory daemon holding one finished minimal-rg audit
// of a cross-pod pair on a k-port fat tree (k=16: the benchmark's 767-RG
// report) behind a real loopback listener.
func readPathServer(tb testing.TB, k int) (*Server, *Client, JobStatus) {
	tb.Helper()
	s, req := fig7Server(tb, k, Config{})
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, req)
	if err != nil {
		tb.Fatal(err)
	}
	end, err := c.WaitDone(ctx, st.ID)
	if err != nil || end.State != StateDone {
		tb.Fatalf("priming audit: %v %+v", err, end)
	}
	return s, c, end
}

// TestClientReportAllocBudget gates the single-decode client: fetching a
// report over loopback — daemon encode, HTTP both ways, client decode, all in
// this process — allocates one decode's worth plus a constant. Three decodes
// of the body (validate-and-copy, shape sniff, typed) and a per-risk-group
// encode would each blow through it.
func TestClientReportAllocBudget(t *testing.T) {
	_, c, job := readPathServer(t, 8)
	ctx := context.Background()
	rep, err := c.Report(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(20, func() {
		if err := json.Unmarshal(blob, new(report.Report)); err != nil {
			t.Fatal(err)
		}
	})
	fetch := testing.AllocsPerRun(20, func() {
		if _, err := c.Report(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d RGs: decode %.0f allocs, fetch %.0f allocs", len(rep.Audits[0].RGs), decode, fetch)
	// The constant covers net/http's per-request work on both sides.
	if limit := decode + 200; fetch > limit {
		t.Errorf("Client.Report: %.0f allocs for a %d-RG report, want ≤ one decode (%.0f) + 200", fetch, len(rep.Audits[0].RGs), decode)
	}
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteResult is the byte-path rung below the handler: a finished
// report's stored bytes written under a job's title — what a hit's read costs
// once the job-table and tier lookups are done. allocs/op is the number to
// watch: the title head and the two header values, independent of k.
func BenchmarkWriteResult(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			s, _, job := readPathServer(b, k)
			res, title, _, err := s.resolve(job.ID)
			if err != nil {
				b.Fatal(err)
			}
			w := discardResponse{h: http.Header{}}
			b.SetBytes(int64(len(res.obj)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.writeResult(w, res, title, nil)
			}
		})
	}
}

// BenchmarkHandlerReport is the handler rung of the read path: GET
// /v1/audits/{id}/report into a recorder — routing, the job-table and tier
// lookups and the write, separable from the network. No codec runs here.
func BenchmarkHandlerReport(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			s, _, job := readPathServer(b, k)
			h := s.Handler()
			req := httptest.NewRequest(http.MethodGet, "/v1/audits/"+job.ID+"/report", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("HTTP %d", rec.Code)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
}

// BenchmarkClientReportLoopback is the client→daemon rung: Client.Report
// against a real loopback listener — what a repeat reader waits for once the
// submit has hit.
func BenchmarkClientReportLoopback(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			_, c, job := readPathServer(b, k)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := c.Report(ctx, job.ID)
				if err != nil || len(rep.Audits) != 1 {
					b.Fatalf("report: %v", err)
				}
			}
		})
	}
}
