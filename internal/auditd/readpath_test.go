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

// TestStoredResultFromPR12Decodes: a result record written by the parent
// commit's store codec (nested marshalers) decodes to the same report and
// re-encodes to the same bytes, so old data directories stay readable and
// content-stable across the upgrade. %#v is the comparison form: it prints
// NaN as NaN and tells nil slices from empty ones.
func TestStoredResultFromPR12Decodes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "stored_result_pr12.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", res), fmt.Sprintf("%#v", upgradeFixtureReport()); got != want {
		t.Errorf("decoded report differs.\ngot:  %s\nwant: %s", got, want)
	}
	again, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Errorf("re-encode differs from the stored bytes.\ngot:  %s\nwant: %s", again, blob)
	}
}

// TestResponsesAreCompactWithContentLength pins the response shape of a
// success and of an encode failure: one compact JSON line, Content-Length
// matching it, and a 500 with the error envelope — not a 200 with an empty
// body — when the payload holds a value encoding/json rejects.
func TestResponsesAreCompactWithContentLength(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	s.cache.Put("good", upgradeFixtureReport())
	bad := upgradeFixtureReport()
	bad.Audits[0].RGs[0].Prob = math.Inf(1)
	s.cache.Put("bad", bad)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(key string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: headers %v for a %d-byte body", key, resp.Header, len(body))
		}
		return resp, body
	}

	resp, body := get("good")
	want, _ := json.Marshal(upgradeFixtureReport())
	if resp.StatusCode != 200 || string(body) != string(want)+"\n" {
		t.Fatalf("good: HTTP %d, body is not the compact encoding plus a newline:\n%s", resp.StatusCode, body)
	}

	resp, body = get("bad")
	var eb errorBody
	if resp.StatusCode != 500 || json.Unmarshal(body, &eb) != nil || !strings.Contains(eb.Error, "encode response") {
		t.Fatalf("bad: HTTP %d body %q, want 500 with the error envelope", resp.StatusCode, body)
	}
	c := NewClient(ts.URL, ts.Client())
	c.Retry.MaxAttempts = 1
	if _, err := c.Cached(context.Background(), "bad"); err == nil || httpStatus(err) != 500 || !strings.Contains(err.Error(), "encode response") {
		t.Fatalf("client on an encode failure: %v", err)
	}

	// Both served payloads were measured; the failed one counts its envelope.
	if st := s.Stats(); st.ResultEncode.Count() != 3 || st.ResultBytes <= int64(len(want)) {
		t.Fatalf("result metrics: %d encodes, %d bytes", st.ResultEncode.Count(), st.ResultBytes)
	}
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
		any1, err := c.CachedAny(ctx, job.CacheKey)
		if err != nil || fmt.Sprintf("%T", any1) != wantType[jobKind] {
			t.Errorf("CachedAny on a %s result: %T, %v", jobKind, any1, err)
		}
		resp, err := http.Get(ts.URL + "/v1/audits/" + job.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		any2, err := DecodeResultPayload(body)
		again, _ := json.Marshal(any2)
		if err != nil || fmt.Sprintf("%T", any2) != wantType[jobKind] || string(again)+"\n" != string(body) {
			t.Errorf("DecodeResultPayload on a %s body: %T, %v, re-encodes to %s", jobKind, any2, err, again)
		}
	}

	// Shapes no job produces decode as they always have: anything without
	// another kind's markers is a report, and malformed input is an error.
	for _, in := range []string{`{}`, `{"title":"t","audits":null}`, `{"audits":[],"rankings":[]}`, `null`} {
		if res, err := DecodeResultPayload([]byte(in)); err != nil || fmt.Sprintf("%T", res) != "*report.Report" {
			t.Errorf("DecodeResultPayload(%s) = %T, %v", in, res, err)
		}
	}
	if res, err := DecodeResultPayload([]byte(`{"audits":`)); err == nil || res != nil {
		t.Errorf("DecodeResultPayload on truncated input = %v, %v", res, err)
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

// BenchmarkHandlerReport is the handler rung of the read path: GET
// /v1/audits/{id}/report into a recorder, so encode and response writing are
// separable from Server.Result (a map lookup) and from the network.
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
