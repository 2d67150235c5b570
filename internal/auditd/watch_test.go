package auditd

// End-to-end tests for the watch subsystem: subscribe → initial report →
// ingest-triggered delta re-audits streamed to the subscriber, over the
// in-process API, over SSE/HTTP, through slow-consumer eviction, and across
// a daemon restart with live subscribers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/sia"
)

// nextWatchEvent blocks for the subscription's next event.
func nextWatchEvent(t *testing.T, sub *Subscription) *WatchEvent {
	t.Helper()
	select {
	case raw, ok := <-sub.Events():
		if !ok {
			t.Fatal("watch events channel closed early")
		}
		ev, ok := raw.(*WatchEvent)
		if !ok {
			t.Fatalf("watch event has type %T", raw)
		}
		return ev
	case <-time.After(20 * time.Second):
		t.Fatal("no watch event within 20s")
	}
	return nil
}

// noWatchEvent asserts the subscription stays quiet for the window.
func noWatchEvent(t *testing.T, sub *Subscription, window time.Duration) {
	t.Helper()
	select {
	case raw, ok := <-sub.Events():
		t.Fatalf("unexpected watch event %+v (open=%v)", raw, ok)
	case <-time.After(window):
	}
}

// watchStats polls until pred accepts the server's stats (watch counters
// settle asynchronously after events are observed).
func watchStats(t *testing.T, s *Server, what string, pred func(Stats) bool) Stats {
	t.Helper()
	var st Stats
	for i := 0; i < 400; i++ {
		st = s.Stats()
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stats never reached %s: %+v", what, st)
	return st
}

// TestWatchStreamsSplicedReaudit is the headline flow: the subscription's
// initial report arrives unprompted; an ingest touching one watched server
// triggers a re-audit that splices only the dirty deployment — and the
// streamed report is byte-identical to a full recompute over the same
// records; an ingest touching nothing watched stays silent.
func TestWatchStreamsSplicedReaudit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	records := deltaRecords()
	mustIngest(t, s, records)

	sub, err := s.Watch(deltaAuditRequest("live"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ev1 := nextWatchEvent(t, sub)
	if ev1.Seq != 1 || len(ev1.Trigger) != 0 {
		t.Fatalf("initial event = seq %d trigger %v, want seq 1 and no trigger", ev1.Seq, ev1.Trigger)
	}
	if ev1.Job.State != StateDone || ev1.Report == nil || ev1.Error != "" {
		t.Fatalf("initial event = %+v, want a completed report", ev1)
	}

	dirtyRec := RecordWire{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}
	mustIngest(t, s, []RecordWire{dirtyRec})

	ev2 := nextWatchEvent(t, sub)
	if ev2.Seq != 2 || !reflect.DeepEqual(ev2.Trigger, []string{"s3"}) {
		t.Fatalf("re-audit event = seq %d trigger %v, want seq 2 triggered by s3", ev2.Seq, ev2.Trigger)
	}
	if ev2.Job.State != StateDone || !ev2.Job.DeltaHit || ev2.Report == nil {
		t.Fatalf("re-audit event = %+v, want a spliced delta report", ev2)
	}
	if !reflect.DeepEqual(ev2.Job.DirtySubjects, []string{"s3", "s4"}) {
		t.Fatalf("DirtySubjects = %v, want the re-audited deployment's servers [s3 s4]", ev2.Job.DirtySubjects)
	}

	// Acceptance: the spliced report a subscriber receives equals the full
	// recompute of the same generation, byte for byte.
	db := depdb.New()
	for _, w := range append(records, dirtyRec) {
		r, err := w.Record()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.dbFingerprint(), db.Snapshot().Fingerprint(); got != want {
		t.Fatalf("server fingerprint %s, ground truth %s", got, want)
	}
	if ev2.Fingerprint != db.Snapshot().Fingerprint() {
		t.Fatalf("event fingerprint %s, want %s", ev2.Fingerprint, db.Snapshot().Fingerprint())
	}
	want, err := sia.AuditDeployments(db.Snapshot(), "", []sia.GraphSpec{
		{Deployment: "front", Servers: []string{"s1", "s2"}},
		{Deployment: "back", Servers: []string{"s3", "s4"}},
	}, sia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, ev2.Report) != auditsJSON(t, want) {
		t.Fatalf("streamed splice diverges from full recompute:\n got %s\nwant %s",
			auditsJSON(t, ev2.Report), auditsJSON(t, want))
	}

	// A record about a server no watched deployment audits never wakes the
	// refresher — the interest filter drops it at the hub.
	mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare-9", Type: "NIC", Dep: "spare-9-X520"}})
	noWatchEvent(t, sub, 150*time.Millisecond)

	st := watchStats(t, s, "2 re-audits", func(st Stats) bool { return st.WatchReaudits == 2 })
	if st.WatchSubscribers != 1 || st.WatchSubscriptions != 1 {
		t.Fatalf("subscriber gauges = %d/%d, want 1/1", st.WatchSubscribers, st.WatchSubscriptions)
	}
	// Two marks: the subscription's initial kick and the s3 ingest.
	if st.WatchEvents != 2 || st.WatchDirtyMarks != 2 || st.WatchDropped != 0 {
		t.Fatalf("watch counters = %+v", st)
	}
	if st.DeltaPartials != 1 {
		t.Fatalf("DeltaPartials = %d, want the re-audit spliced", st.DeltaPartials)
	}

	sub.Close()
	watchStats(t, s, "unsubscribe", func(st Stats) bool { return st.WatchSubscribers == 0 })
}

// TestWatchCoalescesIngestStorm: many ingests landing while one re-audit
// runs fold into a single follow-up — dirt accumulates, it never queues.
// The RunHook gate holds each computation until the test releases it.
func TestWatchCoalescesIngestStorm(t *testing.T) {
	gate := make(chan struct{}, 64)
	s := New(Config{Workers: 1, RunHook: func(ctx context.Context, key string) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}})
	defer shutdown(t, s)
	mustIngest(t, s, deltaRecords())

	sub, err := s.Watch(deltaAuditRequest("storm"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gate <- struct{}{}
	if ev := nextWatchEvent(t, sub); ev.Seq != 1 {
		t.Fatalf("initial seq = %d", ev.Seq)
	}

	// Ten concurrent ingests, all touching the watched server s3. The first
	// wakes the refresher, whose re-audit blocks on the gate; the rest can
	// only accumulate dirt.
	const storm = 10
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Ingest(&IngestRequest{Records: []RecordWire{
				{Kind: "software", Pgm: fmt.Sprintf("pkg-%d", i), HW: "s3", Deps: []string{"libc6"}},
			}})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		gate <- struct{}{}
	}

	var events []*WatchEvent
drain:
	for {
		select {
		case raw, ok := <-sub.Events():
			if !ok {
				t.Fatal("events channel closed mid-storm")
			}
			events = append(events, raw.(*WatchEvent))
		case <-time.After(700 * time.Millisecond):
			break drain
		}
	}
	// At most two re-audits can follow the storm: one for the dirt taken at
	// wake-up, one for everything that accumulated while it ran.
	if len(events) < 1 || len(events) > 2 {
		t.Fatalf("storm of %d ingests produced %d re-audit events, want 1 or 2", storm, len(events))
	}
	last := events[len(events)-1]
	if last.Report == nil || last.Fingerprint != s.dbFingerprint() {
		t.Fatalf("final event = %+v, want the end-state report", last)
	}
	st := s.Stats()
	// Marks are per commit group (plus the initial kick), and the storm's
	// grouping is scheduling-dependent: anywhere from one group to ten.
	if st.WatchDirtyMarks < 2 || st.WatchDirtyMarks > storm+1 {
		t.Fatalf("WatchDirtyMarks = %d, want 2..%d", st.WatchDirtyMarks, storm+1)
	}
	if st.WatchReaudits > 3 {
		t.Fatalf("WatchReaudits = %d for %d ingests, want coalescing to ≤ 3", st.WatchReaudits, storm)
	}
}

// TestWatchValidation: inline records and a database-less server are both
// rejected up front with 400.
func TestWatchValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	if _, err := s.Watch(quickRequest("inline"), 0); httpStatus(err) != 400 {
		t.Fatalf("watch with inline records = %v, want 400", err)
	}
	req := deltaAuditRequest("no-db")
	if _, err := s.Watch(req, 0); httpStatus(err) != 400 {
		t.Fatalf("watch before any ingest = %v, want 400", err)
	}
	mustIngest(t, s, deltaRecords())
	sub, err := s.Watch(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}

// TestWatchSlowConsumerEvicted: a subscriber that never drains its queue is
// evicted on the first overflow; its buffered events stay readable and the
// channel then closes.
func TestWatchSlowConsumerEvicted(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	mustIngest(t, s, deltaRecords())

	sub, err := s.Watch(deltaAuditRequest("sluggish"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Let the initial report fill the single queue slot before overflowing.
	watchStats(t, s, "initial event queued", func(st Stats) bool { return st.WatchEvents == 1 })

	mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}})
	st := watchStats(t, s, "eviction", func(st Stats) bool { return st.WatchEvicted == 1 })
	if st.WatchDropped != 1 || st.WatchSubscribers != 0 {
		t.Fatalf("after eviction: %+v", st)
	}
	if !sub.Evicted() {
		t.Fatal("subscription does not report its eviction")
	}
	if ev := nextWatchEvent(t, sub); ev.Seq != 1 || ev.Report == nil {
		t.Fatalf("buffered event = %+v, want the initial report still readable", ev)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel still open after eviction drained")
	}
}

// TestWatcherReadsBoundedFrames drives the client's SSE reader on raw
// streams: a frame's data lines — however many, however long, CRLF or LF —
// concatenate into one event, and a frame past maxResponseBody fails with
// the size error every other client path gives instead of growing.
func TestWatcherReadsBoundedFrames(t *testing.T) {
	read := func(stream string) (*WatchEvent, error) {
		w := &Watcher{rd: bufio.NewReader(strings.NewReader(stream))}
		return w.readEvent()
	}
	ev, err := read(": heartbeat\n\nevent: report\r\ndata: {\"seq\":7,\r\ndata:\"fingerprint\":\"fp\"}\r\n\r\n")
	if err != nil || ev.Seq != 7 || ev.Fingerprint != "fp" {
		t.Errorf("two data lines: event %+v, err %v", ev, err)
	}
	// One line several times bufio's buffer, with a report inside.
	long := &WatchEvent{Seq: 9, Trigger: make([]string, 2000), Report: upgradeFixtureReport()}
	for i := range long.Trigger {
		long.Trigger[i] = fmt.Sprintf("server-%04d", i)
	}
	blob, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	frame := "event: report\ndata: " + string(blob) + "\n\n"
	ev, err = read("event: other\ndata: ignored\n\n" + frame)
	if err != nil || !reflect.DeepEqual(ev.Trigger, long.Trigger) || ev.Report == nil || len(ev.Report.Audits) != len(long.Report.Audits) {
		t.Errorf("a %d-byte data line: err %v", len(blob), err)
	}

	defer func(old int64) { maxResponseBody = old }(maxResponseBody)
	maxResponseBody = 1024
	for name, stream := range map[string]string{
		"one long line":    frame,
		"many short lines": "event: report\n" + strings.Repeat("data: "+strings.Repeat("x", 100)+"\n", 20) + "\n",
		"no line end":      strings.Repeat("x", 5000),
	} {
		if _, err := read(stream); err == nil || !strings.Contains(err.Error(), "response exceeds 1024 bytes") {
			t.Errorf("%s: err = %v, want the size error", name, err)
		}
	}
	if _, err := read("event: closed\ndata: {}\n\n"); err == nil || !strings.Contains(err.Error(), "closed by server") {
		t.Errorf("closed frame: err = %v", err)
	}
}

// TestWatchFrameSplicesStoredBytes: an SSE frame splices the stored report
// bytes into the event instead of encoding the report again, and is still
// byte for byte what json.Marshal makes of the event — for the initial
// report, a spliced refresh, a failed re-audit and an event carrying both a
// report and an error — under a title encoding/json escapes. The client
// decodes every frame back to the same event.
func TestWatchFrameSplicesStoredBytes(t *testing.T) {
	var fail atomic.Bool
	s := New(Config{Workers: 2, RunHook: func(context.Context, string) error {
		if fail.Load() {
			return errors.New("injected re-audit failure")
		}
		return nil
	}})
	defer gracefulShutdown(t, s)
	mustIngest(t, s, deltaRecords())
	sub, err := s.Watch(deltaAuditRequest("frame <&> \"q\" \u2028"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	check := func(label string, ev *WatchEvent) {
		t.Helper()
		got, err := ev.frameJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame\n%s\nwant json.Marshal's\n%s", label, got, want)
		}
		back, err := decodeWatchEvent(got)
		if err != nil {
			t.Fatalf("%s: the client cannot decode the frame: %v", label, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, want) {
			t.Fatalf("%s: the client decoded\n%s\nfrom\n%s", label, again, want)
		}
	}

	initial := nextWatchEvent(t, sub)
	if initial.Report == nil || initial.enc == nil {
		t.Fatalf("initial event = %+v, want a report with its stored bytes", initial)
	}
	check("initial report", initial)
	mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}})
	spliced := nextWatchEvent(t, sub)
	if !spliced.Job.DeltaHit || spliced.enc == nil {
		t.Fatalf("refresh = %+v, want a splice with its stored bytes", spliced.Job)
	}
	check("spliced refresh", spliced)
	both := *spliced
	both.Error = "a report and an error <&>"
	check("report and error", &both)

	fail.Store(true)
	mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "s1", Deps: []string{"libc6"}}})
	failed := nextWatchEvent(t, sub)
	if failed.Error == "" || failed.Report != nil {
		t.Fatalf("refresh under a failing hook = %+v, want a failed re-audit", failed)
	}
	check("failed re-audit", failed)
}

// TestWatchOverHTTP drives the SSE endpoint end to end: the typed client
// subscribes and sees the ingest-triggered splice; a plain GET with the
// spec in the query string gets the same stream (the curl path).
func TestWatchOverHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer gracefulShutdown(t, s)
	mustIngest(t, s, deltaRecords())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c := NewClient(ts.URL, ts.Client())
	w, err := c.Watch(ctx, deltaAuditRequest("sse"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ev1, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Seq != 1 || ev1.Report == nil {
		t.Fatalf("initial SSE event = %+v", ev1)
	}

	if _, err := c.Ingest(ctx, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}}); err != nil {
		t.Fatal(err)
	}
	ev2, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Seq != 2 || !ev2.Job.DeltaHit || ev2.Report == nil || !reflect.DeepEqual(ev2.Trigger, []string{"s3"}) {
		t.Fatalf("SSE re-audit event = %+v, want a spliced delta triggered by s3", ev2)
	}
	w.Close()

	// The curl path: GET with the request JSON-encoded in ?spec.
	spec, err := json.Marshal(deltaAuditRequest("curl"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/watch?buffer=2&spec=" + url.QueryEscape(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("GET /v1/watch = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	rd := bufio.NewReader(resp.Body)
	var sawReport bool
	for !sawReport {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev WatchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if ev.Seq != 1 || ev.Report == nil {
			t.Fatalf("GET stream event = %+v", ev)
		}
		sawReport = true
	}

	// Malformed GETs are rejected before any stream starts.
	for _, bad := range []string{"/v1/watch", "/v1/watch?spec=%7Bnope", "/v1/watch?buffer=0&spec=%7B%7D"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("GET %s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestWatchSurvivesRestartUnderChurn is the race/restart contract: watch
// subscriptions churn while ingests and submits run concurrently, the
// daemon restarts under live subscribers, and the HTTP watcher — riding the
// client's resubscribe — keeps receiving reports from the recovered
// database. Run with -race this also exercises the hub/committer/refresher
// interleavings.
func TestWatchSurvivesRestartUnderChurn(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 2, Store: st1})
	mustIngest(t, s1, deltaRecords())

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
	c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w, err := c.Watch(ctx, deltaAuditRequest("durable"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if ev, err := w.Next(); err != nil || ev.Report == nil {
		t.Fatalf("initial event = %+v, %v", ev, err)
	}

	// Churn: subscriptions opening and closing, ingests and submits landing,
	// all interleaved with the watcher above. cur tracks the live daemon so
	// the in-process churn follows the restart.
	var cur atomic.Pointer[Server]
	cur.Store(s1)
	stopChurn := make(chan struct{})
	stopSubs := make(chan struct{})
	var churnWG, subWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopSubs:
					return
				default:
				}
				sub, err := cur.Load().Watch(deltaAuditRequest(fmt.Sprintf("churn-%d-%d", g, i)), 4)
				if err != nil {
					continue // restarting; the next round lands on the new daemon
				}
				select {
				case <-sub.Events():
				case <-time.After(20 * time.Millisecond):
				}
				sub.Close()
			}
		}(g)
	}
	churnWG.Add(2)
	go func() { // ingest churn touching a watched server
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			cur.Load().Ingest(&IngestRequest{Records: []RecordWire{
				{Kind: "software", Pgm: fmt.Sprintf("churn-%d", i), HW: "s2", Deps: []string{"libc6"}},
			}})
		}
	}()
	go func() { // submit churn against the server database
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			if st, err := cur.Load().Submit(deltaAuditRequest(fmt.Sprintf("probe-%d", i))); err == nil {
				cur.Load().WaitDone(context.Background(), st.ID, 50*time.Millisecond)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	// Quiesce the ingest/submit churn so the post-restart fingerprint is
	// deterministic; subscription churn keeps running across the restart.
	close(stopChurn)
	churnWG.Wait()

	// Restart with live subscribers: the graceful shutdown closes every
	// stream, the watcher's reconnects bounce off the gated transport, and
	// the new daemon serves the restored database.
	down.Store(true)
	gracefulShutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	db, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, Store: st2, DB: db})
	cur.Store(s2)
	handlerMu.Lock()
	handler = s2.Handler()
	handlerMu.Unlock()
	down.Store(false)

	resp, err := c.Ingest(ctx, []RecordWire{{Kind: "software", Pgm: "post-restart", HW: "s3", Deps: []string{"libc6"}}})
	if err != nil {
		t.Fatalf("post-restart ingest: %v", err)
	}
	// The watcher must converge on the recovered daemon's end state: drain
	// (possibly stale pre-restart) events until one carries the post-restart
	// fingerprint.
	for {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("watch across restart: %v", err)
		}
		if ev.Fingerprint == resp.Fingerprint {
			if ev.Report == nil || ev.Job.State != StateDone {
				t.Fatalf("post-restart event = %+v, want a completed report", ev)
			}
			break
		}
	}
	close(stopSubs)
	subWG.Wait()
	w.Close()
	gracefulShutdown(t, s2)
}
