package auditd

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
)

// testRecords is a small two-server deployment sharing a ToR switch and
// libc6 — it has unexpected size-1 risk groups, like the paper's Fig. 4c.
func testRecords() []RecordWire {
	return WireRecords([]deps.Record{
		deps.NewNetwork("s1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("s1", "Internet", "ToR1", "Core2"),
		deps.NewNetwork("s2", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("s2", "Internet", "ToR1", "Core2"),
		deps.NewHardware("s1", "Disk", "S1-SED900"),
		deps.NewHardware("s2", "Disk", "S2-SED900"),
		deps.NewSoftware("nginx", "s1", "libc6", "libssl3"),
		deps.NewSoftware("httpd", "s2", "libc6", "libapr1"),
	})
}

func quickRequest(title string) *SubmitRequest {
	return &SubmitRequest{
		Title:   title,
		Records: testRecords(),
		Deployments: []DeploymentWire{
			{Name: "s1+s2", Servers: []string{"s1", "s2"}},
		},
	}
}

// slowRequest samples an absurd number of rounds: it can only finish by
// cancellation. seed diversifies the cache key so tests control coalescing.
func slowRequest(title string, seed int64) *SubmitRequest {
	r := quickRequest(title)
	r.Algorithm = "failure-sampling"
	r.Rounds = 2_000_000_000
	r.Seed = seed
	r.SamplerWorkers = 2
	return r
}

func mustSubmit(t *testing.T, s *Server, req *SubmitRequest) JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.WaitDone(ctx, id, 30*time.Second)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State == StateQueued || st.State == StateRunning {
		t.Fatalf("job %s still %s after wait", id, st.State)
	}
	return st
}

func shutdown(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx) // deadline forces cancellation of leftover jobs
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	cases := []*SubmitRequest{
		{}, // no deployments
		{Deployments: quickRequest("").Deployments}, // no records, no preloaded DB
		func() *SubmitRequest { r := quickRequest(""); r.Algorithm = "magic"; return r }(),
		func() *SubmitRequest { r := quickRequest(""); r.FailureProb = 2; return r }(),
		func() *SubmitRequest { r := quickRequest(""); r.Deployments[0].Kinds = []string{"nope"}; return r }(),
		func() *SubmitRequest { r := quickRequest(""); r.Deployments[0].Needed = 5; return r }(),
		func() *SubmitRequest { r := quickRequest(""); r.Records[0].Kind = "router"; return r }(),
		// A server listed twice used to be queued and fail in a worker on a
		// duplicate fault-graph event label.
		func() *SubmitRequest {
			r := quickRequest("")
			r.Deployments[0].Servers = []string{"s1", "s1"}
			return r
		}(),
		// Negative sampler workers would fall through to GOMAXPROCS and
		// make a content-addressed result host-dependent.
		func() *SubmitRequest {
			r := quickRequest("")
			r.Algorithm = "failure-sampling"
			r.SamplerWorkers = -1
			return r
		}(),
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: want error", i)
		} else if httpStatus(err) != 400 {
			t.Errorf("case %d: want 400, got %d", i, httpStatus(err))
		}
	}
	// The recommendation pool never had the hole: placement validation
	// rejects a repeated node at submission too.
	dup := &RecommendRequest{Records: testRecords(), Nodes: []string{"s1", "s2", "s1"}, Replicas: 2}
	if _, err := s.Recommend(dup); err == nil || httpStatus(err) != 400 {
		t.Errorf("recommend with a repeated node: want 400, got %v", err)
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("%d invalid requests became jobs", st.Submitted)
	}
}

// TestCacheHitSkipsRecomputation is the acceptance assertion: a repeated
// identical job is answered from the content-addressed cache without
// re-running the RG algorithms.
func TestCacheHitSkipsRecomputation(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	first := mustSubmit(t, s, quickRequest("first"))
	if first.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	waitDone(t, s, first.ID)

	second := mustSubmit(t, s, quickRequest("second title, same audit"))
	if !second.Cached || second.State != StateDone {
		t.Fatalf("identical resubmission must hit the cache: %+v", second)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}
	st := s.Stats()
	if st.Computations != 1 {
		t.Fatalf("want exactly 1 computation, got %d", st.Computations)
	}
	if st.CacheHits != 1 || st.HitRate() != 0.5 {
		t.Fatalf("want 1 cache hit (rate 0.5), got %+v", st)
	}

	// Each job keeps its own title over the shared audits.
	rep1, err := s.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Title != "first" || rep2.Title != "second title, same audit" {
		t.Fatalf("titles lost: %q / %q", rep1.Title, rep2.Title)
	}
	if len(rep2.Audits) != 1 || rep2.Audits[0].Unexpected == 0 {
		t.Fatalf("shared ToR1/libc6 must yield unexpected RGs: %+v", rep2.Audits)
	}
	if !math.IsNaN(rep2.Audits[0].FailureProb) {
		t.Fatal("unweighted audit must keep NaN failure prob in-process")
	}

	// The content address is directly dereferenceable.
	if _, err := s.Cached(second.CacheKey); err != nil {
		t.Fatalf("cached lookup: %v", err)
	}
}

// TestCacheKeyCanonicalization: defaults applied explicitly, irrelevant
// sampler knobs, titles and timeouts must not fragment the cache key.
func TestCacheKeyCanonicalization(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	base := mustSubmit(t, s, quickRequest("a"))

	explicit := quickRequest("b")
	explicit.Algorithm = "minimal-rg"
	explicit.Rounds = 31337 // sampler knob: irrelevant for minimal-rg
	explicit.Seed = 99
	explicit.SamplerWorkers = 7
	explicit.TimeoutMS = 60_000
	st := mustSubmit(t, s, explicit)
	if st.CacheKey != base.CacheKey {
		t.Fatal("explicit defaults and irrelevant sampler knobs must not change the key")
	}

	sampling := quickRequest("c")
	sampling.Algorithm = "failure-sampling"
	st = mustSubmit(t, s, sampling)
	if st.CacheKey == base.CacheKey {
		t.Fatal("a different algorithm must change the key")
	}
}

// TestConcurrentJobs is the acceptance load point: ≥32 in-flight jobs on a
// small bounded pool, none rejected, all completing.
func TestConcurrentJobs(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer shutdown(t, s)

	const jobs = 40
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickRequest(fmt.Sprintf("job-%d", i))
			// Distinct deployment names → distinct cache keys: every job
			// needs its own computation.
			req.Deployments[0].Name = fmt.Sprintf("s1+s2 #%d", i)
			st, err := s.Submit(req)
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
	}
	st := s.Stats()
	if st.Submitted != jobs || st.Completed != jobs || st.Rejected != 0 {
		t.Fatalf("want %d submitted+completed, 0 rejected; got %+v", jobs, st)
	}
}

// TestCoalescingSharesOneComputation: identical jobs racing in together
// must cost one computation between them.
func TestCoalescingSharesOneComputation(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	req := func(i int) *SubmitRequest {
		r := quickRequest(fmt.Sprintf("racer-%d", i))
		r.Algorithm = "failure-sampling"
		r.Rounds = 400_000 // long enough that racers overlap, short enough to finish
		return r
	}
	const racers = 6
	ids := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(req(i))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
	}
	st := s.Stats()
	if st.Computations != 1 {
		t.Fatalf("identical jobs must share one computation, ran %d", st.Computations)
	}
	if st.Coalesced+st.CacheHits != racers-1 {
		t.Fatalf("want %d coalesced+cached, got %+v", racers-1, st)
	}
}

// TestCancelReleasesWorker is the acceptance cancellation point: an
// in-flight job canceled via the API must release its worker goroutine (the
// pool has one worker; a follow-up job can only complete if the canceled
// computation actually stopped).
func TestCancelReleasesWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	slow := mustSubmit(t, s, slowRequest("stuck", 1))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	st, err := s.Cancel(slow.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("cancel returned state %s", st.State)
	}
	// The single worker must come back: a fresh job completes.
	quick := mustSubmit(t, s, quickRequest("after-cancel"))
	if st := waitDone(t, s, quick.ID); st.State != StateDone {
		t.Fatalf("post-cancel job finished %s (%s)", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to come back", elapsed)
	}
	if s.Stats().Canceled != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	// Canceling again is idempotent; the report stays unavailable.
	if st, err := s.Cancel(slow.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("re-cancel: %v %+v", err, st)
	}
	if _, err := s.Report(slow.ID); httpStatus(err) != 409 {
		t.Fatalf("want 409 for canceled job's report, got %v", err)
	}
}

// TestCancelOneCoalescedJobKeepsComputation: with two jobs on one
// computation, canceling one must not kill the other's result.
func TestCancelOneCoalescedJobKeepsComputation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	// Occupy the only worker so the next two submissions coalesce in queue.
	blocker := mustSubmit(t, s, slowRequest("blocker", 2))
	a := mustSubmit(t, s, quickRequest("a"))
	b := mustSubmit(t, s, quickRequest("b"))
	if a.CacheKey != b.CacheKey {
		t.Fatal("fixture must coalesce")
	}
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, b.ID); st.State != StateDone {
		t.Fatalf("job b finished %s (%s)", st.State, st.Error)
	}
	if st, _ := s.Status(a.ID); st.State != StateCanceled {
		t.Fatalf("job a is %s", st.State)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)

	first := mustSubmit(t, s, slowRequest("running", 10))
	// Give the worker a moment to pick the first job up, freeing the queue
	// slot for the second; the third submission must then overflow.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.Status(first.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mustSubmit(t, s, slowRequest("queued", 11))
	_, err := s.Submit(slowRequest("overflow", 12))
	if err == nil || httpStatus(err) != 429 {
		t.Fatalf("want 429, got %v", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	req := slowRequest("deadline", 20)
	req.TimeoutMS = 50
	st := mustSubmit(t, s, req)
	end := waitDone(t, s, st.ID)
	if end.State != StateCanceled {
		t.Fatalf("timed-out job finished %s", end.State)
	}
	if end.Error == "" || !strings.Contains(end.Error, "deadline") {
		t.Fatalf("want deadline error, got %q", end.Error)
	}
}

// TestCoalescedJobKeepsOwnTimeout: a short-deadline job attaching to a
// long-running shared computation must time out on its own schedule without
// killing the computation for the job that wanted it.
func TestCoalescedJobKeepsOwnTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	patient := mustSubmit(t, s, slowRequest("patient", 30))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status(patient.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hurried := slowRequest("hurried", 30)
	hurried.TimeoutMS = 50
	h := mustSubmit(t, s, hurried)
	if !h.Coalesced {
		t.Fatalf("fixture must coalesce: %+v", h)
	}
	end := waitDone(t, s, h.ID)
	if end.State != StateCanceled || !strings.Contains(end.Error, "deadline") {
		t.Fatalf("hurried job: %+v", end)
	}
	// The shared computation must still be running for the patient job.
	if st, _ := s.Status(patient.ID); st.State != StateRunning {
		t.Fatalf("patient job is %s, want running", st.State)
	}
	if _, err := s.Cancel(patient.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobRetention: terminal jobs beyond the retention bound are evicted so
// the job table stays finite; active jobs survive.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 2, JobRetention: 5})
	defer shutdown(t, s)

	var ids []string
	for i := 0; i < 12; i++ {
		req := quickRequest(fmt.Sprintf("r-%d", i))
		req.Deployments[0].Name = fmt.Sprintf("d-%d", i) // distinct keys
		st := mustSubmit(t, s, req)
		waitDone(t, s, st.ID)
		ids = append(ids, st.ID)
	}
	if got := len(s.Jobs()); got > 5 {
		t.Fatalf("job table holds %d jobs, retention is 5", got)
	}
	if _, err := s.Status(ids[0]); httpStatus(err) != 404 {
		t.Fatalf("oldest job must be evicted, got %v", err)
	}
	if _, err := s.Status(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job must survive: %v", err)
	}
}

// TestJobRetentionWrapsAroundActiveJobs drives a full table through many
// times its retention — every submit evicts, the order slice compacts over
// and over — with two computations held open: the oldest job in the table
// and one submitted mid-stream. Active jobs are never evicted, however many
// terminal jobs are pruned around them; the listing stays in submission
// order and within the bound; and once released they age out like any job.
func TestJobRetentionWrapsAroundActiveJobs(t *testing.T) {
	const retention = 4
	release := make(chan struct{})
	var releaseOnce sync.Once
	var holding atomic.Bool
	s := New(Config{Workers: 2, JobRetention: retention, RunHook: func(ctx context.Context, key string) error {
		if holding.Load() {
			<-release
		}
		return nil
	}})
	defer shutdown(t, s)
	defer releaseOnce.Do(func() { close(release) }) // a failed assertion must not strand shutdown behind the held jobs
	distinct := func(name string) *SubmitRequest {
		req := quickRequest(name)
		req.Deployments[0].Name = name // distinct keys
		return req
	}
	submitHeld := func(name string) string { return mustSubmit(t, s, distinct(name)).ID }

	hit := distinct("hit")
	waitDone(t, s, mustSubmit(t, s, hit).ID)
	holding.Store(true) // every computation from here on blocks until released
	active := []string{submitHeld("held-first")}
	var last string
	for i := 0; i < 20*retention; i++ {
		if i == 7 {
			active = append(active, submitHeld("held-later"))
		}
		st := mustSubmit(t, s, hit) // a memory hit: terminal on arrival
		if !st.Cached {
			t.Fatalf("submit %d was not a hit: %+v", i, st)
		}
		last = st.ID
		jobs := s.Jobs()
		if len(jobs) > retention {
			t.Fatalf("after %d submits the table lists %d jobs, retention is %d", i+1, len(jobs), retention)
		}
		listed := map[string]string{}
		for _, j := range jobs {
			listed[j.ID] = j.State
		}
		for _, id := range active {
			if st, ok := listed[id]; !ok || st == StateDone {
				t.Fatalf("after %d submits active job %s is %q in the listing (\"\" = evicted)", i+1, id, st)
			}
		}
		for j := 1; j < len(jobs); j++ {
			if jobs[j-1].ID >= jobs[j].ID { // ids are zero-padded sequence numbers
				t.Fatalf("listing out of submission order: %s before %s", jobs[j-1].ID, jobs[j].ID)
			}
		}
		if jobs[len(jobs)-1].ID != last {
			t.Fatalf("newest job %s missing from the listing", last)
		}
	}
	s.mu.Lock()
	slots, live := len(s.order), len(s.order)-s.head
	s.mu.Unlock()
	if live != len(s.Jobs()) || slots > 2*(retention+1) {
		t.Fatalf("order slice holds %d slots for %d live jobs", slots, live)
	}

	releaseOnce.Do(func() { close(release) })
	for _, id := range active {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("released job %s finished %s", id, st.State)
		}
	}
	for i := 0; i < retention; i++ {
		mustSubmit(t, s, hit)
	}
	for _, id := range active {
		if _, err := s.Status(id); httpStatus(err) != 404 {
			t.Fatalf("finished job %s must age out like any other, got %v", id, err)
		}
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	s := New(Config{Workers: 2})
	st := mustSubmit(t, s, quickRequest("before"))
	waitDone(t, s, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown with idle pool: %v", err)
	}
	if _, err := s.Submit(quickRequest("after")); httpStatus(err) != 503 {
		t.Fatalf("want 503 after shutdown, got %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown must be a no-op: %v", err)
	}
}

func TestPreloadedDBSnapshotIsolation(t *testing.T) {
	db := testDB(t)
	s := New(Config{Workers: 1, DB: db})
	defer shutdown(t, s)

	req := &SubmitRequest{Deployments: []DeploymentWire{{Name: "d", Servers: []string{"s1", "s2"}}}}
	a := mustSubmit(t, s, req)
	waitDone(t, s, a.ID)

	// Growing the live DB changes the fingerprint → a new cache key; the
	// old cached entry stays valid for its own content address.
	if err := db.Put(deps.NewSoftware("redis", "s1", "libjemalloc2")); err != nil {
		t.Fatal(err)
	}
	b := mustSubmit(t, s, req)
	if b.CacheKey == a.CacheKey {
		t.Fatal("DB growth must change the content address")
	}
	if b.Cached {
		t.Fatal("changed DB cannot be a cache hit")
	}
	waitDone(t, s, b.ID)
	if s.Stats().Computations != 2 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func testDB(t *testing.T) *depdb.DB {
	t.Helper()
	db := depdb.New()
	for _, w := range testRecords() {
		r, err := w.Record()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
