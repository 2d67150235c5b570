package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracePhases(t *testing.T) {
	base := time.Now()
	tr := NewAt(base)
	end := tr.StartAt("queue-wait", base)
	snap := tr.Snapshot()
	if len(snap) != 1 || !snap[0].Running {
		t.Fatalf("open phase not visible in snapshot: %+v", snap)
	}
	end()
	end() // idempotent
	tr.Span("graph-build", base.Add(5*time.Millisecond), 2*time.Millisecond)
	tr.Add("rgs_found", 3)
	tr.Add("rgs_found", 4)

	snap = tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 phases, got %d", len(snap))
	}
	if snap[0].Name != "queue-wait" || snap[0].Running {
		t.Fatalf("phase 0 = %+v", snap[0])
	}
	if snap[1].Name != "graph-build" || snap[1].StartNS != (5*time.Millisecond).Nanoseconds() ||
		snap[1].DurationNS != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("phase 1 = %+v", snap[1])
	}
	if got := tr.Counts()["rgs_found"]; got != 7 {
		t.Fatalf("rgs_found = %d, want 7", got)
	}
	// Snapshot orders by start offset even when recorded out of order.
	tr.Span("early", base.Add(time.Millisecond), time.Millisecond)
	snap = tr.Snapshot()
	if snap[1].Name != "early" {
		t.Fatalf("snapshot not sorted by start: %+v", snap)
	}
}

// TestTraceSeal: a sealed trace reads back exactly what it recorded, in a
// few bytes per phase; a trace with a running phase stays open; and a
// sealed trace records again, its earlier phases and counts kept.
func TestTraceSeal(t *testing.T) {
	base := time.Now()
	tr := NewAt(base)
	for i, name := range []string{"queue-wait", "graph-build", "sampling", "encode"} {
		tr.Span(name, base.Add(time.Duration(i)*time.Millisecond), time.Duration(i+1)*time.Second)
	}
	tr.Span("backdated", base.Add(-time.Millisecond), time.Microsecond)
	for i, name := range []string{"rounds_sampled", "rounds_failed", "graph_evals", "rgs_found"} {
		tr.Add(name, int64(i)*100_000-1)
	}
	phases, counts := tr.Snapshot(), tr.Counts()
	tr.Seal()
	if tr.sealed == nil || tr.phases != nil || tr.counts != nil {
		t.Fatal("a finished trace did not seal")
	}
	if n := len(tr.sealed); n > 64 {
		t.Errorf("sealed trace is %d bytes, want ≤ 64 for five phases and four counts", n)
	}
	if got := tr.Snapshot(); !slices.Equal(got, phases) {
		t.Fatalf("sealed phases %+v, want %+v", got, phases)
	}
	if got := tr.Counts(); !maps.Equal(got, counts) {
		t.Fatalf("sealed counts %v, want %v", got, counts)
	}
	tr.Seal() // idempotent

	tr.Add("rgs_found", 1)
	end := tr.Start("notify")
	if tr.sealed != nil {
		t.Fatal("recording did not unseal the trace")
	}
	tr.Seal()
	if tr.sealed != nil {
		t.Fatal("a trace with a running phase sealed")
	}
	end()
	tr.Seal()
	got := tr.Snapshot()
	i := slices.IndexFunc(got, func(p Phase) bool { return p.Name == "notify" })
	if len(got) != len(phases)+1 || i < 0 || got[i].Running {
		t.Fatalf("phases after reopening: %+v", got)
	}
	if n := tr.Counts()["rgs_found"]; n != counts["rgs_found"]+1 {
		t.Fatalf("rgs_found = %d after reopening, want %d", n, counts["rgs_found"]+1)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Start("x")()
	tr.StartAt("x", time.Now())()
	tr.Span("x", time.Now(), time.Second)
	tr.Add("x", 1)
	if tr.Snapshot() != nil || tr.Counts() != nil {
		t.Fatal("nil trace must snapshot to nil")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				end := tr.Start("p")
				tr.Add("n", 1)
				end()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 800 {
		t.Fatalf("want 800 phases, got %d", got)
	}
	if got := tr.Counts()["n"]; got != 800 {
		t.Fatalf("count = %d, want 800", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context must yield nil trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("attaching nil trace must be a no-op")
	}
	tr := New()
	if FromContext(WithTrace(ctx, tr)) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	s := h.Snapshot()
	counts := map[int]uint64{0: 3, 1: 2, 2: 1, 10: 1, 20: 1}
	for i, want := range counts {
		if s.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
	if got := s.Count(); got != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", got, len(cases))
	}
	// A sample beyond the largest bound lands in overflow.
	h.Observe(2 * BucketBound(NumBuckets-1))
	if h.Snapshot().Overflow != 1 {
		t.Fatal("overflow bucket not incremented")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond) // bucket 7: (64µs, 128µs]
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 <= 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want within (64µs, 128µs]", p50)
	}
	if s.Quantile(0) != 0 {
		t.Fatal("q=0 must report 0")
	}
	if q := s.Quantile(2); q <= 64*time.Microsecond || q > 128*time.Microsecond {
		t.Fatalf("clamped q>1 = %v out of bucket range", q)
	}
	// All-overflow histograms report the largest finite bound.
	var o Histogram
	o.Observe(2 * BucketBound(NumBuckets-1))
	if q := o.Snapshot().Quantile(0.99); q != BucketBound(NumBuckets-1) {
		t.Fatalf("overflow quantile = %v, want %v", q, BucketBound(NumBuckets-1))
	}
}

func TestHistogramExpositionRoundTrip(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond, time.Second, 2 * BucketBound(NumBuckets-1)} {
		h.Observe(d)
	}
	var buf bytes.Buffer
	s := h.Snapshot()
	s.WritePrometheus(&buf, "test_seconds", "a test histogram")
	text := buf.String()

	if !strings.Contains(text, "# TYPE test_seconds histogram\n") {
		t.Fatalf("missing TYPE line:\n%s", text)
	}
	// Bucket samples must be cumulative and end with +Inf == _count.
	var last uint64
	var infSeen bool
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "test_seconds_bucket{") {
			continue
		}
		var n uint64
		if _, err := fmtSscanf(line, &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = n
		infSeen = strings.Contains(line, `le="+Inf"`)
	}
	if !infSeen {
		t.Fatal("+Inf bucket must be the final bucket sample")
	}
	if !strings.Contains(text, "test_seconds_count 5\n") {
		t.Fatalf("missing _count:\n%s", text)
	}

	parsed, ok := ParseHistogram(text, "test_seconds")
	if !ok {
		t.Fatal("ParseHistogram found nothing")
	}
	if parsed.Count() != s.Count() || parsed.Overflow != s.Overflow {
		t.Fatalf("round-trip mismatch: parsed %+v, want %+v", parsed, s)
	}
	if parsed.Buckets != s.Buckets {
		t.Fatalf("bucket mismatch: parsed %v, want %v", parsed.Buckets, s.Buckets)
	}
	if d := parsed.Sum - s.Sum; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("sum mismatch: parsed %v, want %v", parsed.Sum, s.Sum)
	}
	if _, ok := ParseHistogram(text, "absent_seconds"); ok {
		t.Fatal("ParseHistogram invented samples for an absent metric")
	}
}

// fmtSscanf extracts the trailing integer from a sample line.
func fmtSscanf(line string, n *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*n, err = parseUint(line[i+1:])
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errNotDigit
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

var errNotDigit = errorString("not a digit")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines < 1 {
		t.Fatalf("goroutines = %d", rs.Goroutines)
	}
	if rs.HeapBytes == 0 {
		t.Fatal("heap bytes = 0")
	}
}

func TestReadBuild(t *testing.T) {
	bi := ReadBuild()
	if bi.GoVersion == "" {
		t.Fatal("empty go version")
	}
	if bi.Revision == "" {
		t.Fatal("empty revision (want a hash or \"unknown\")")
	}
	if again := ReadBuild(); again != bi {
		t.Fatal("ReadBuild not stable across calls")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []struct{ level, format string }{
		{"debug", "text"}, {"info", "json"}, {"warn", "text"}, {"error", "json"}, {"", ""},
	} {
		if _, err := NewLogger(&buf, c.level, c.format); err != nil {
			t.Fatalf("NewLogger(%q, %q): %v", c.level, c.format, err)
		}
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}

	buf.Reset()
	log, _ := NewLogger(&buf, "info", "json")
	log.Debug("hidden")
	log.Info("shown", "k", "v")
	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if entry["msg"] != "shown" || entry["k"] != "v" {
		t.Fatalf("unexpected log entry: %v", entry)
	}
}

func TestLogRequests(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		AnnotateJob(r, "job-42")
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer must keep Flusher for SSE")
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("ok"))
		w.(http.Flusher).Flush()
	})
	h := LogRequests(log, inner)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/audits", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d", rec.Code)
	}
	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, buf.String())
	}
	if entry["method"] != "POST" || entry["path"] != "/v1/audits" ||
		entry["status"] != float64(http.StatusAccepted) || entry["job"] != "job-42" {
		t.Fatalf("access log entry = %v", entry)
	}
	if entry["level"] != "INFO" {
		t.Fatalf("level = %v, want INFO", entry["level"])
	}

	// Scrape endpoints log at debug; implicit 200 via Write.
	buf.Reset()
	plain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	LogRequests(log, plain).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
	entry = map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v", err)
	}
	if entry["level"] != "DEBUG" || entry["status"] != float64(200) {
		t.Fatalf("scrape log entry = %v", entry)
	}

	// Handlers that never write still log an implicit 200.
	buf.Reset()
	LogRequests(log, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	entry = map[string]any{}
	json.Unmarshal(buf.Bytes(), &entry)
	if entry["status"] != float64(200) {
		t.Fatalf("implicit status = %v", entry["status"])
	}

	// nil logger: middleware is the identity.
	if got := LogRequests(nil, inner); got == nil {
		t.Fatal("nil logger must pass handler through")
	}

	// AnnotateJob outside the middleware is a safe no-op.
	AnnotateJob(httptest.NewRequest("GET", "/x", nil), "id")
}
