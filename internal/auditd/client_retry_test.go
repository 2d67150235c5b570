package auditd

// Client retry/backoff tests, driven by fake transports: refused
// connections and 429/503 rejections are retried with capped jittered
// backoff (honoring Retry-After), ambiguous transport failures are retried
// too — every call is idempotent — and WaitDone rides out a full daemon
// restart.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func refusedErr() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
}

// flakyTransport refuses the first n round trips, then delegates.
type flakyTransport struct {
	calls atomic.Int64
	n     int64
	base  http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.calls.Add(1) <= f.n {
		return nil, refusedErr()
	}
	return f.base.RoundTrip(r)
}

// brokenTransport always fails with an ambiguous (non-refused) error.
type brokenTransport struct{ calls atomic.Int64 }

func (b *brokenTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	b.calls.Add(1)
	return nil, errors.New("connection reset mid-flight")
}

func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestClientRetriesRefusedConnection: a submit (and an ingest — nothing
// reached the server) survives a daemon that is briefly down.
func TestClientRetriesRefusedConnection(t *testing.T) {
	s := New(Config{Workers: 1})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	ft := &flakyTransport{n: 2, base: ts.Client().Transport}
	c := NewClient(ts.URL, &http.Client{Transport: ft})
	c.Retry = fastRetry()
	st, err := c.Submit(ctx, quickRequest("retry-me"))
	if err != nil {
		t.Fatalf("submit through flaky transport: %v", err)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two refused, one served)", got)
	}
	if done, err := c.WaitDone(ctx, st.ID); err != nil || done.State != StateDone {
		t.Fatalf("wait = %+v, %v", done, err)
	}

	ft2 := &flakyTransport{n: 1, base: ts.Client().Transport}
	c2 := NewClient(ts.URL, &http.Client{Transport: ft2})
	c2.Retry = fastRetry()
	resp, err := c2.Ingest(ctx, []RecordWire{{Kind: "hardware", HW: "h1", Type: "Disk", Dep: "h1-d"}})
	if err != nil || resp.Added != 1 {
		t.Fatalf("ingest through flaky transport = %+v, %v", resp, err)
	}
	if got := ft2.calls.Load(); got != 2 {
		t.Fatalf("ingest attempts = %d, want 2", got)
	}
}

// lostReplyTransport delivers the first n round trips to the server and then
// loses the reply: the ambiguous failure, where the caller cannot know
// whether the request was acted on.
type lostReplyTransport struct {
	calls atomic.Int64
	n     int64
	base  http.RoundTripper
}

func (l *lostReplyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.base.RoundTrip(r)
	if err == nil && l.calls.Add(1) <= l.n {
		resp.Body.Close()
		return nil, errors.New("connection reset mid-flight")
	}
	return resp, err
}

// TestIngestRetriedOnAmbiguousErrorConverges: an ingest whose reply was lost
// after the server committed it is resent like any other request, and —
// ingest being idempotent — the database lands on the fingerprint one clean
// delivery produces. A transport that never delivers exhausts the attempts.
func TestIngestRetriedOnAmbiguousErrorConverges(t *testing.T) {
	ctx := context.Background()
	ref := New(Config{Workers: 1})
	defer gracefulShutdown(t, ref)
	want := mustIngest(t, ref, testRecords())

	s := New(Config{Workers: 1})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	lt := &lostReplyTransport{n: 1, base: ts.Client().Transport}
	c := NewClient(ts.URL, &http.Client{Transport: lt})
	c.Retry = fastRetry()
	got, err := c.Ingest(ctx, testRecords())
	if err != nil || got != want {
		t.Fatalf("ingest through a lost reply = %+v, %v; one clean delivery answers %+v", got, err, want)
	}
	if calls := lt.calls.Load(); calls != 2 {
		t.Fatalf("ingest attempts = %d, want 2 (one committed but unanswered, one re-observing)", calls)
	}
	if fp := s.dbFingerprint(); fp != want.Fingerprint {
		t.Fatalf("database fingerprint after the retry = %s, want %s", fp, want.Fingerprint)
	}

	bt := &brokenTransport{}
	dead := NewClient("http://127.0.0.1:0", &http.Client{Transport: bt})
	dead.Retry = fastRetry()
	if _, err := dead.Ingest(ctx, testRecords()); err == nil {
		t.Fatal("broken transport reported success")
	}
	if calls := bt.calls.Load(); calls != int64(dead.Retry.MaxAttempts) {
		t.Fatalf("ingest attempts = %d, want %d", calls, dead.Retry.MaxAttempts)
	}
}

// TestQueueFullCarriesRetryAfterAndClientBacksOff: the server's 429 names a
// retry delay, and the client honors it — the retried submit lands after
// the queue drains.
func TestQueueFullCarriesRetryAfterAndClientBacksOff(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, RunHook: blockingHook(release)})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	// Occupy the worker and the single queue slot with distinct keys. Wait
	// for the worker to pick up the first job so the second lands in the
	// queue slot rather than racing it for the same one.
	reqA, reqB := quickRequest("hold-a"), quickRequest("hold-b")
	reqB.Deployments[0].Name = "alt-b"
	a := mustSubmit(t, s, reqA)
	for i := 0; i < 400; i++ {
		if st, err := s.Status(a.ID); err == nil && st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustSubmit(t, s, reqB)

	reqC := quickRequest("rejected")
	reqC.Deployments[0].Name = "alt-c"
	noRetry := NewClient(ts.URL, ts.Client())
	noRetry.Retry = RetryPolicy{MaxAttempts: 1}
	_, err := noRetry.Submit(ctx, reqC)
	if err == nil || httpStatus(err) != 429 {
		t.Fatalf("submit to full queue = %v (HTTP %d), want 429", err, httpStatus(err))
	}
	var se *statusErr
	if !errors.As(err, &se) || se.retryAfter != time.Second {
		t.Fatalf("429 carried retryAfter=%v, want 1s", se.retryAfter)
	}

	// With retries on, the same submit waits out the full queue.
	go close(release)
	c := NewClient(ts.URL, ts.Client())
	c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	st, err := c.Submit(ctx, reqC)
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if done, err := c.WaitDone(ctx, st.ID); err != nil || done.State != StateDone {
		t.Fatalf("wait = %+v, %v", done, err)
	}
}

// gateTransport refuses while down is set, else delegates — the client's
// view of a daemon that is killed and later comes back.
type gateTransport struct {
	down *atomic.Bool
	base http.RoundTripper
}

func (g *gateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.down.Load() {
		return nil, refusedErr()
	}
	return g.base.RoundTrip(r)
}

// TestWaitDoneSurvivesDaemonRestart is the end-to-end client contract: a
// WaitDone in flight when the daemon is killed keeps retrying through the
// refused connections, and — because the restarted daemon recovers the
// journal before serving — finds the SAME job id again and returns its
// completion.
func TestWaitDoneSurvivesDaemonRestart(t *testing.T) {
	oldCap := maxStatusWait
	maxStatusWait = 50 * time.Millisecond
	defer func() { maxStatusWait = oldCap }()

	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1)

	// The proxy front door survives the "restart"; the handler behind it is
	// swapped when the second daemon comes up, as a port takeover would.
	var handlerMu sync.Mutex
	handler := s1.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerMu.Lock()
		h := handler
		handlerMu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	var down atomic.Bool
	c := NewClient(proxy.URL, &http.Client{Transport: &gateTransport{down: &down, base: proxy.Client().Transport}})
	c.Retry = RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, quickRequest("survives-restart"))
	if err != nil {
		t.Fatal(err)
	}

	type waitResult struct {
		st  JobStatus
		err error
	}
	waited := make(chan waitResult, 1)
	go func() {
		st, err := c.WaitDone(ctx, st.ID)
		waited <- waitResult{st, err}
	}()

	// Let the poll loop establish itself, then kill the daemon mid-poll.
	time.Sleep(150 * time.Millisecond)
	down.Store(true)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v", n, err)
	}
	handlerMu.Lock()
	handler = s2.Handler()
	handlerMu.Unlock()
	down.Store(false)

	res := <-waited
	if res.err != nil {
		t.Fatalf("WaitDone across restart: %v", res.err)
	}
	if res.st.ID != st.ID || res.st.State != StateDone || !res.st.Recovered {
		t.Fatalf("WaitDone = %+v, want the same job done and recovered", res.st)
	}
}

// TestRetryAfterHintOverridesBackoff: a 503 carrying Retry-After: 1 holds
// the retry for the full second even when the policy's own backoff is
// milliseconds.
func TestRetryAfterHintOverridesBackoff(t *testing.T) {
	s := New(Config{Workers: 1})
	defer gracefulShutdown(t, s)
	inner := s.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"degraded"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ts.Client())
	c.Retry = fastRetry()
	start := time.Now()
	if _, err := c.Submit(context.Background(), quickRequest("hinted")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry fired after %v, want the server's 1s hint honored", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}
