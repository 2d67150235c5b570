package auditd

// Survivability tests: crash-safe job recovery through the journal,
// degraded (memory-only) serving behind the store circuit breaker, and
// worker panic isolation. "kill -9" is emulated in-process by closing the
// store out from under a daemon whose workload is parked on a RunHook —
// the journal record is on disk, the job never settles, and a second
// daemon opening the same directory must pick the work back up.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"indaas/internal/faultinject"
	"indaas/internal/store"
)

// blockingHook parks every computation until release is closed; it honors
// cancellation so an abandoned daemon can still shut down.
func blockingHook(release <-chan struct{}) func(context.Context, string) error {
	return func(ctx context.Context, key string) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// waitJournal polls until the store holds exactly want KindJob entries
// (a job reports done just before its journal tombstone lands).
func waitJournal(t *testing.T, st *store.Store, want int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if len(journalEntries(st)) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("journal = %v, want %d records", journalEntries(st), want)
}

func waitNoJournal(t *testing.T, st *store.Store) {
	t.Helper()
	waitJournal(t, st, 0)
}

func journalEntries(st *store.Store) []string {
	var keys []string
	for _, e := range st.Entries() {
		if e.Kind == store.KindJob {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// TestJournalRecoveryAfterCrash is the tentpole contract: a job accepted
// before a kill -9 is re-enqueued at the next boot under its original id,
// completes with the same report an uninterrupted run produces, is served
// again after an ingest its servers do not read, and its journal record is
// tombstoned.
func TestJournalRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1) // cancels the parked computation at test end
	mustIngest(t, s1, deltaRecords())

	first := mustSubmit(t, s1, deltaAuditRequest("crash-me"))
	if first.ID != "job-000001" || first.State == StateDone {
		t.Fatalf("submitted = %+v, want a queued job-000001", first)
	}
	// Submit returned, so the journal record is already durable; the
	// workload is parked on the hook. Emulate kill -9 by yanking the store.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if keys := journalEntries(st2); len(keys) != 1 || keys[0] != "job/job-000001" {
		t.Fatalf("journal after crash = %v, want [job/job-000001]", keys)
	}
	db, err := RestoreDB(st2)
	if err != nil || db == nil {
		t.Fatalf("RestoreDB = %v, %v", db, err)
	}
	s2 := New(Config{Workers: 1, Store: st2, DB: db})
	defer gracefulShutdown(t, s2)
	n, err := s2.RecoverJobs()
	if err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v; want 1 job", n, err)
	}
	if got := s2.Stats().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d", got)
	}

	// Same id, flagged as recovered, and it completes for real this time.
	done := waitDone(t, s2, "job-000001")
	if done.State != StateDone || !done.Recovered {
		t.Fatalf("recovered job = %+v, want done+recovered", done)
	}
	recoveredRep, err := s2.Report("job-000001")
	if err != nil {
		t.Fatal(err)
	}

	// The recovered run's report must match an uninterrupted run's.
	clean := New(Config{Workers: 1})
	defer gracefulShutdown(t, clean)
	mustIngest(t, clean, deltaRecords())
	cj := mustSubmit(t, clean, deltaAuditRequest("crash-me"))
	waitDone(t, clean, cj.ID)
	cleanRep, err := clean.Report(cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := regexp.MustCompile(`"elapsed_ns":\d+`)
	norm := func(rep any) string {
		b, _ := json.Marshal(rep)
		return elapsed.ReplaceAllString(string(b), `"elapsed_ns":0`)
	}
	if got, want := norm(recoveredRep), norm(cleanRep); got != want {
		t.Fatalf("recovered report diverges from clean run:\n%s\nvs\n%s", got, want)
	}

	waitNoJournal(t, st2)

	// Fresh ids continue past the recovered one, and the recovered job's
	// result answers its address: ingest-then-resubmit is a plain hit.
	next := mustSubmit(t, s2, deltaAuditRequest("next"))
	if next.ID != "job-000002" {
		t.Fatalf("post-recovery id = %s, want job-000002", next.ID)
	}
	mustIngest(t, s2, []RecordWire{{Kind: "hardware", HW: "spare-9", Type: "NIC", Dep: "spare-9-nic"}})
	delta := mustSubmit(t, s2, deltaAuditRequest("post-crash-delta"))
	if delta.State != StateDone || !delta.Cached {
		t.Fatalf("post-crash resubmission = %+v, want a plain hit", delta)
	}
	if got := s2.Stats().Computations; got != 1 {
		t.Fatalf("computations = %d, want only the recovered job's", got)
	}
}

// TestRecoveryOverflowKeepsAcceptedWork: a crash that leaves more journaled
// jobs than the queue and the workers hold at once must not cost the
// overflow. RecoverJobs leaves the records of the jobs it found no room for
// on disk, and a later recovery — the next boot, or as here the next call
// once the queue drained — accepts them.
func TestRecoveryOverflowKeepsAcceptedWork(t *testing.T) {
	const workers, depth = 1, 2
	const total = depth + workers + 3
	st := openStore(t, t.TempDir())
	defer st.Close()
	for i := 1; i <= total; i++ { // what the crashed process had accepted
		req := quickRequest("overflow")
		req.Deployments[0].Name = fmt.Sprintf("deployment-%d", i) // distinct keys: nothing coalesces
		rec := mustJSON(t, journalRecord{Kind: KindAudit, Request: mustJSON(t, req)})
		if _, err := st.Put(journalKey(fmt.Sprintf("job-%06d", i)), store.KindJob, rec); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	s := New(Config{Workers: workers, QueueDepth: depth, Store: st, RunHook: blockingHook(release)})
	defer gracefulShutdown(t, s)

	first, err := s.RecoverJobs()
	// Between depth and depth+workers jobs fit, depending on how fast the
	// worker took its first; at least three overflow either way.
	if err != nil || first < depth || first > depth+workers {
		t.Fatalf("RecoverJobs = %d, %v; want %d..%d accepted", first, err, depth, depth+workers)
	}
	if keys := journalEntries(st); len(keys) != total {
		t.Fatalf("after an overflowing recovery the journal holds %d of %d records: %v", len(keys), total, keys)
	}
	if got := s.Stats().Rejected; got != int64(total-first) {
		t.Fatalf("rejected = %d, want the %d overflow jobs", got, total-first)
	}

	close(release) // drain the queue
	for _, j := range s.Jobs() {
		if done := waitDone(t, s, j.ID); done.State != StateDone || !done.Recovered {
			t.Fatalf("recovered job = %+v", done)
		}
	}
	waitJournal(t, st, total-first) // tombstones land just after a job reports done
	second, err := s.RecoverJobs()
	if err != nil || second != total-first {
		t.Fatalf("second RecoverJobs = %d, %v; want the %d overflow jobs", second, err, total-first)
	}
	for _, j := range s.Jobs() {
		waitDone(t, s, j.ID)
	}
	waitJournal(t, st, 0)
	if got := s.Stats(); got.JobsRecovered != total || got.Completed != total {
		t.Fatalf("recovered %d and completed %d of %d journaled jobs", got.JobsRecovered, got.Completed, total)
	}
}

// TestStaleJournalSelfHeals: a crash after the result was persisted but
// before the journal tombstone leaves a stale record; the next boot replays
// it, the replay disk-hits instantly, and the record is cleared — no
// recomputation, no wedged boots.
func TestStaleJournalSelfHeals(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	req := quickRequest("stale")
	j := mustSubmit(t, s1, req)
	waitDone(t, s1, j.ID)
	waitNoJournal(t, st1)
	// Re-create the journal record the crash would have left behind.
	blob, _ := json.Marshal(req)
	rec, _ := json.Marshal(journalRecord{Kind: KindAudit, Request: blob})
	if _, err := st1.Put(journalKey(j.ID), store.KindJob, rec); err != nil {
		t.Fatal(err)
	}
	gracefulShutdown(t, s1)
	st1.Close()

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	n, err := s2.RecoverJobs()
	if err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v", n, err)
	}
	st, err := s2.Status(j.ID)
	if err != nil || st.State != StateDone || !st.DiskHit || !st.Recovered {
		t.Fatalf("replayed job = %+v, %v; want an instant disk hit", st, err)
	}
	if got := s2.Stats().Computations; got != 0 {
		t.Fatalf("stale-journal replay ran %d computations", got)
	}
	waitNoJournal(t, st2)
}

// TestCanceledJobNotResurrected: canceling a journaled job tombstones its
// record, so a restart does not replay work the client explicitly killed.
func TestCanceledJobNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	j := mustSubmit(t, s1, quickRequest("doomed"))
	if _, err := s1.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitNoJournal(t, st1)
	close(release)
	gracefulShutdown(t, s1)
	st1.Close()

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	if n, _ := s2.RecoverJobs(); n != 0 {
		t.Fatalf("recovered %d jobs after an explicit cancel", n)
	}
}

// TestWatchRefreshNotResurrected: a watch refresher's re-audit is submitted
// unjournaled — nobody holds its job id across a crash and its SSE stream
// dies with the daemon — so a kill -9 with a refresh in flight leaves no
// job/<id> record for it and the next boot recovers only the job a client
// submitted, exactly as TestJournalRecoveryAfterCrash pins.
func TestWatchRefreshNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1) // cancels the parked computations at test end
	mustIngest(t, s1, deltaRecords())

	sub, err := s1.Watch(deltaAuditRequest("live"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The initial refresh is submitted and parks on the hook.
	watchStats(t, s1, "one refresh in flight", func(st Stats) bool {
		return st.WatchReaudits == 1 && st.Submitted == 1
	})
	if keys := journalEntries(st1); len(keys) != 0 {
		t.Fatalf("an in-flight watch refresh was journaled: %v", keys)
	}
	client := mustSubmit(t, s1, &SubmitRequest{
		Title:       "client",
		Deployments: []DeploymentWire{{Name: "solo", Servers: []string{"s1", "s3"}}},
	})
	if client.ID != "job-000002" || client.State == StateDone {
		t.Fatalf("client job = %+v, want a queued job-000002 behind the refresh", client)
	}
	if err := st1.Close(); err != nil { // kill -9
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if keys := journalEntries(st2); len(keys) != 1 || keys[0] != "job/job-000002" {
		t.Fatalf("journal after crash = %v, want only the client's [job/job-000002]", keys)
	}
	db, err := RestoreDB(st2)
	if err != nil || db == nil {
		t.Fatalf("RestoreDB = %v, %v", db, err)
	}
	s2 := New(Config{Workers: 1, Store: st2, DB: db})
	defer gracefulShutdown(t, s2)
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v; want the client job alone", n, err)
	}
	if got := s2.Stats().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", got)
	}
	if done := waitDone(t, s2, client.ID); done.State != StateDone || !done.Recovered {
		t.Fatalf("recovered client job = %+v", done)
	}
	if _, err := s2.Status("job-000001"); httpStatus(err) != 404 {
		t.Fatalf("the refresh job came back after the restart: %v", err)
	}
	waitNoJournal(t, st2)

	// A completed refresh on the rebooted daemon leaves nothing behind
	// either, spliced computation included.
	sub2, err := s2.Watch(deltaAuditRequest("live"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	nextWatchEvent(t, sub2)
	puts := st2.Stats().Puts
	mustIngest(t, s2, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}})
	if ev := nextWatchEvent(t, sub2); !ev.Job.DeltaHit || len(ev.Job.DirtySubjects) != 2 {
		t.Fatalf("refresh after a dirtying ingest = %+v, want a splice", ev.Job)
	}
	// Segment + pointer for the ingest, one result for the splice: no job/.
	if got := st2.Stats().Puts - puts; got != 3 {
		t.Fatalf("ingest + spliced refresh wrote %d store records, want 3", got)
	}
}

// faultStore opens a store in dir routed through the injecting FS.
func faultStore(t *testing.T, dir string, fs *faultinject.FS) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, OpenFile: func(name string, flag int, perm os.FileMode) (store.File, error) {
		return fs.OpenFile(name, flag, perm)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fakeClock is a manually advanced clock for breaker cooldown tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestDegradedModeTripAndRecover: repeated ENOSPC trips the breaker — the
// daemon keeps serving from memory, stops hammering the disk — and a
// successful half-open probe after the cooldown restores durable mode.
func TestDegradedModeTripAndRecover(t *testing.T) {
	fs := &faultinject.FS{}
	st := faultStore(t, t.TempDir(), fs)
	clock := &fakeClock{now: time.Now()}
	s := New(Config{
		Workers: 1, Store: st,
		StoreFailureThreshold: 2, StoreRetryInterval: 10 * time.Second,
		Now: clock.Now,
	})
	defer gracefulShutdown(t, s)

	fs.FailWrites(fs.Writes()+1, 0, syscall.ENOSPC) // every write fails until Reset

	// Job A: the journal write fails (1), then the result persist fails (2)
	// — threshold reached, breaker opens.
	a := mustSubmit(t, s, quickRequest("a"))
	if waitDone(t, s, a.ID).State != StateDone {
		t.Fatal("store failures must not fail the job")
	}
	stats := s.Stats()
	if !stats.Degraded || stats.StoreTrips != 1 || stats.StoreErrors != 2 {
		t.Fatalf("after trip: %+v", stats)
	}
	if !strings.Contains(stats.DegradedReason, "no space left") {
		t.Fatalf("degraded reason = %q", stats.DegradedReason)
	}

	// Job B (distinct key): served memory-only, no new write attempts.
	reqB := quickRequest("b")
	reqB.Deployments[0].Name = "alt"
	b := mustSubmit(t, s, reqB)
	if waitDone(t, s, b.ID).State != StateDone {
		t.Fatal("degraded daemon must keep serving")
	}
	stats = s.Stats()
	if stats.StoreErrors != 2 {
		t.Fatalf("degraded mode still hit the store: %d errors", stats.StoreErrors)
	}
	if stats.StoreSkippedWrites == 0 {
		t.Fatal("no writes were skipped while degraded")
	}

	// Disk recovers; after the cooldown the next write probes and closes
	// the breaker.
	fs.Reset()
	clock.Advance(11 * time.Second)
	reqC := quickRequest("c")
	reqC.Deployments[0].Name = "other"
	c := mustSubmit(t, s, reqC)
	done := waitDone(t, s, c.ID)
	stats = s.Stats()
	if stats.Degraded {
		t.Fatalf("breaker still open after a successful probe: %+v", stats)
	}
	// Done implies durable again: the result is on disk.
	if _, kind, ok, err := st.Get(done.CacheKey); err != nil || !ok || kind != store.KindResult {
		t.Fatalf("post-recovery result not durable: kind=%v ok=%v err=%v", kind, ok, err)
	}
}

// TestIngestDegradedChainRepair: an ingest that cannot persist is rejected
// 503 (safe to retry); once the breaker is open the retry commits to memory
// with Durable=false; and the first durable ingest after recovery rebuilds
// the snapshot chain in full, so a restart serves every batch — including
// the ones accepted while degraded.
func TestIngestDegradedChainRepair(t *testing.T) {
	dir := t.TempDir()
	fs := &faultinject.FS{}
	st := faultStore(t, dir, fs)
	clock := &fakeClock{now: time.Now()}
	s := New(Config{
		Workers: 1, Store: st,
		StoreFailureThreshold: 1, StoreRetryInterval: 10 * time.Second,
		Now: clock.Now,
	})

	batch := func(hw string) []RecordWire {
		return []RecordWire{{Kind: "hardware", HW: hw, Type: "Disk", Dep: hw + "-disk"}}
	}
	r1, err := s.Ingest(&IngestRequest{Records: batch("h1")})
	if err != nil || !r1.Durable {
		t.Fatalf("ingest 1 = %+v, %v", r1, err)
	}

	fs.FailWrites(fs.Writes()+1, 0, syscall.ENOSPC)
	_, err = s.Ingest(&IngestRequest{Records: batch("h2")})
	if err == nil || httpStatus(err) != 503 || !strings.Contains(err.Error(), "safe to retry") {
		t.Fatalf("failed ingest = %v (HTTP %d), want a retryable 503", err, httpStatus(err))
	}
	// The memory DB was left untouched, so the retry cannot duplicate. The
	// breaker (threshold 1) is now open: the retry is accepted memory-only.
	r2, err := s.Ingest(&IngestRequest{Records: batch("h2")})
	if err != nil || r2.Durable {
		t.Fatalf("degraded ingest = %+v, %v; want accepted with Durable=false", r2, err)
	}
	if r2.Total != 2 {
		t.Fatalf("degraded ingest total = %d, want 2", r2.Total)
	}

	// Disk back: the next ingest probes, and — because the chain went stale
	// — lays down a full fresh base carrying the degraded batch too.
	fs.Reset()
	clock.Advance(11 * time.Second)
	r3, err := s.Ingest(&IngestRequest{Records: batch("h3")})
	if err != nil || !r3.Durable {
		t.Fatalf("healing ingest = %+v, %v", r3, err)
	}

	gracefulShutdown(t, s)
	st.Close()
	st2 := openStore(t, dir)
	db, err := RestoreDB(st2)
	if err != nil || db == nil {
		t.Fatalf("RestoreDB = %v, %v", db, err)
	}
	snap := db.Snapshot()
	if snap.Fingerprint() != r3.Fingerprint || snap.Len() != r3.Total {
		t.Fatalf("restored db = %s (%d records), want %s (%d)",
			snap.Fingerprint(), snap.Len(), r3.Fingerprint, r3.Total)
	}
}

// TestWorkerPanicIsolated: a panicking workload fails only its own job —
// with the stack in the error — and the worker keeps serving later jobs.
func TestWorkerPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 1, RunHook: func(ctx context.Context, key string) error {
		if calls.Add(1) == 1 {
			panic("kaboom")
		}
		return nil
	}})
	defer gracefulShutdown(t, s)

	a := mustSubmit(t, s, quickRequest("panics"))
	stA := waitDone(t, s, a.ID)
	if stA.State != StateFailed {
		t.Fatalf("panicked job = %+v, want failed", stA)
	}
	if !strings.Contains(stA.Error, "worker panic: kaboom") || !strings.Contains(stA.Error, "goroutine") {
		t.Fatalf("panic error lost the stack: %q", stA.Error)
	}
	// The same request again: the failure was not cached, the worker
	// survived, and this time it completes.
	b := mustSubmit(t, s, quickRequest("retry"))
	if stB := waitDone(t, s, b.ID); stB.State != StateDone {
		t.Fatalf("post-panic job = %+v", stB)
	}
	stats := s.Stats()
	if stats.WorkerPanics != 1 || stats.Failed != 1 || stats.Completed != 1 {
		t.Fatalf("stats after panic = %+v", stats)
	}
}

// TestRunHookErrorFailsJob: a hook error (the chaos delay hook's context
// cancellation, say) fails or cancels the job without running the workload.
func TestRunHookErrorFailsJob(t *testing.T) {
	s := New(Config{Workers: 1, RunHook: func(ctx context.Context, key string) error {
		return errors.New("injected pre-run failure")
	}})
	defer gracefulShutdown(t, s)
	j := mustSubmit(t, s, quickRequest("hooked"))
	st := waitDone(t, s, j.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "injected pre-run failure") {
		t.Fatalf("hooked job = %+v", st)
	}
}
