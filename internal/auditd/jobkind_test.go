package auditd

// Table tests over the job-kind table: whatever is registered in jobKinds
// gets the whole round trip — HTTP submit, journal replay, disk envelope,
// a forwarded relay — by registering, plus the goldens that pin what the
// refactor to one submit path had to leave byte-identical (JobStatus per
// provenance value, content addresses per option block).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"indaas/internal/report"
	"indaas/internal/store"
)

// kindFixture is what a table test needs that a kind cannot say about
// itself: a valid self-contained request (runnable on any node, no server
// state) and a sample result for the codec tests.
type kindFixture struct {
	request func(title string) jobRequest
	sample  func(title string) any
}

var kindFixtures = map[string]kindFixture{
	KindAudit: {
		request: func(title string) jobRequest { return quickRequest(title) },
		sample:  func(title string) any { r := upgradeFixtureReport(); r.Title = title; return r },
	},
	KindRecommend: {
		request: func(title string) jobRequest { return recommendRequest(title) },
		sample: func(title string) any {
			return &RecommendResponse{Title: title, Strategy: "exact", Replicas: 2, Rankings: []RecommendationWire{{Rank: 1, Nodes: []string{"a", "<b>"}, SizeVector: []int{0, 2}}}}
		},
	},
	KindPrivateAudit: {
		request: func(title string) jobRequest {
			return &PrivateAuditRequest{Title: title, Providers: []ProviderWire{
				{Name: "left", Components: []string{"pkg:a", "pkg:b", "pkg:shared"}},
				{Name: "right", Components: []string{"pkg:x", "pkg:shared"}},
			}}
		},
		sample: func(title string) any {
			jaccard := 0.25
			return &PrivateAuditResponse{Title: title, Pairs: 1, Entries: []PrivateAuditEntryWire{{Providers: []string{"x", "y"}, Jaccard: &jaccard}}}
		},
	},
}

// fixtureFor fails the test when a kind was registered without a fixture:
// the table tests are only as complete as this map.
func fixtureFor(t *testing.T, k *jobKind) kindFixture {
	t.Helper()
	fx, ok := kindFixtures[k.name]
	if !ok {
		t.Fatalf("job kind %q is registered in jobKinds but has no entry in kindFixtures", k.name)
	}
	return fx
}

// elapsedFields are the only bytes two computations of one content address
// may differ in.
var elapsedFields = regexp.MustCompile(`"(elapsed_ns|pairs_per_sec)":[0-9.e+-]+`)

// postJob POSTs a request to its kind's route, returning the HTTP status and
// the job.
func postJob(t *testing.T, base string, k *jobKind, req jobRequest) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(base+k.route, "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("POST %s: HTTP %d, %v", k.route, resp.StatusCode, err)
	}
	return resp.StatusCode, st
}

// reportBody GETs a finished job's report as served.
func reportBody(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/audits/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("report of %s: HTTP %d, %v: %s", id, resp.StatusCode, err, body)
	}
	return body
}

// relayExecutor is the forward path of a cluster router with the routing
// taken out: every workload goes to one owner through the client calls the
// real router makes, and the owner's report body comes back as bytes.
type relayExecutor struct {
	Executor
	owner *Client
}

func (r *relayExecutor) Submit(ctx context.Context, w *Workload, cb ExecCallbacks) error {
	go func() {
		cb.Started()
		st, err := r.owner.SubmitWorkload(ctx, w)
		if err == nil {
			_, err = r.owner.WaitDone(ctx, st.ID)
		}
		if err != nil {
			cb.Done(nil, err)
			return
		}
		cb.Done(r.owner.JobResult(ctx, st.ID))
	}()
	return nil
}

// TestJobKindRoundTrip drives every registered kind through every place a
// kind's name or route is looked up.
func TestJobKindRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, k := range jobKinds {
		fx := fixtureFor(t, k)
		wantType := fmt.Sprintf("%T", fx.sample(""))
		t.Run(k.name, func(t *testing.T) {
			// HTTP: submit → 202 → report bytes; resubmit → 200, cached.
			st := openStore(t, t.TempDir())
			defer st.Close()
			s := New(Config{Workers: 1, Store: st})
			defer gracefulShutdown(t, s)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			code, job := postJob(t, ts.URL, k, fx.request("round-trip"))
			if code != 202 || job.State == StateDone {
				t.Fatalf("first POST %s = HTTP %d %+v, want 202 and a pending job", k.route, code, job)
			}
			if done := waitDone(t, s, job.ID); done.State != StateDone {
				t.Fatalf("job = %+v", done)
			}
			body := reportBody(t, ts.URL, job.ID)
			if code, again := postJob(t, ts.URL, k, fx.request("again")); code != 200 || !again.Cached || again.CacheKey != job.CacheKey {
				t.Fatalf("second POST %s = HTTP %d %+v, want 200 and a cache hit on %s", k.route, code, again, job.CacheKey)
			}
			served, err := EncodedResultFromPayload(bytes.Clone(body))
			if err != nil || served.kind != k {
				t.Fatalf("the served body adopts as %+v, %v; want kind %s", served, err, k.name)
			}

			// Disk envelope → parseEnvelope → Decode, and back out as served.
			blob, kind, ok, err := st.Get(job.CacheKey)
			if err != nil || !ok || kind != store.KindResult {
				t.Fatalf("stored result: kind %v ok %v err %v", kind, ok, err)
			}
			stored, err := parseEnvelope(blob)
			if err != nil || stored.kind != k {
				t.Fatalf("parseEnvelope = %+v, %v; want kind %s", stored, err, k.name)
			}
			if got := servedBytes(stored, "round-trip"); !bytes.Equal(got, body) {
				t.Errorf("the stored envelope serves\n%s\nthe job served\n%s", got, body)
			}
			if res, err := stored.Decode("round-trip"); err != nil || fmt.Sprintf("%T", res) != wantType {
				t.Errorf("Decode = %T, %v; want %s", res, err, wantType)
			} else if again := append(mustJSON(t, res), '\n'); !bytes.Equal(again, body) {
				t.Errorf("the decoded result re-encodes to\n%s\nwant\n%s", again, body)
			}

			t.Run("journal", func(t *testing.T) { journalRoundTrip(t, k, fx, body) })
			t.Run("forward", func(t *testing.T) { forwardRoundTrip(ctx, t, k, fx) })
		})
	}
}

// journalRoundTrip: a job accepted before a crash leaves a {kind, request}
// record and RecoverJobs replays it under the original id to the same report.
func journalRoundTrip(t *testing.T, k *jobKind, fx kindFixture, want []byte) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	release := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1, RunHook: blockingHook(release)})
	defer shutdown(t, s1) // cancels the parked computation
	req := fx.request("round-trip")
	job, err := s1.submitJob(k, req, origin{})
	if err != nil || job.State == StateDone {
		t.Fatalf("submit = %+v, %v; want a pending job", job, err)
	}
	record, _, ok, err := st1.Get(journalKey(job.ID))
	wantRecord := mustJSON(t, journalRecord{Kind: k.name, Request: mustJSON(t, req)})
	if err != nil || !ok || !bytes.Equal(record, wantRecord) {
		t.Fatalf("journal record = %s (ok %v, err %v), want %s", record, ok, err, wantRecord)
	}
	if err := st1.Close(); err != nil { // kill -9: the record is durable, the job never settles
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v; want 1", n, err)
	}
	done := waitDone(t, s2, job.ID)
	if done.State != StateDone || !done.Recovered || done.CacheKey != job.CacheKey {
		t.Fatalf("recovered job = %+v, want %s done under key %s", done, job.ID, job.CacheKey)
	}
	enc, title, _, err := s2.resolve(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := elapsedFields.ReplaceAll(servedBytes(enc, title), nil)
	if want := elapsedFields.ReplaceAll(want, nil); !bytes.Equal(got, want) {
		t.Errorf("the replayed job reports\n%s\nan uninterrupted one\n%s", got, want)
	}
}

// forwardRoundTrip: a coordinator that relays the job to an owner serves the
// owner's report body byte for byte, having run no codec and no computation.
// Both sit behind a fake cluster, which is what lets the owner take the
// relay's forwarded mark from loopback.
func forwardRoundTrip(ctx context.Context, t *testing.T, k *jobKind, fx kindFixture) {
	owner := New(Config{Workers: 1, Cluster: &fakeCluster{}})
	defer gracefulShutdown(t, owner)
	ots := httptest.NewServer(owner.Handler())
	defer ots.Close()
	ownerClient := NewClient(ots.URL, ots.Client())
	ownerClient.SetHeader(ForwardedHeader, "1")
	coord := New(Config{Workers: 1, Cluster: &fakeCluster{exec: func(local Executor) Executor {
		return &relayExecutor{Executor: local, owner: ownerClient}
	}}})
	defer gracefulShutdown(t, coord)
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	_, job := postJob(t, cts.URL, k, fx.request("relayed"))
	if done := waitDone(t, coord, job.ID); done.State != StateDone {
		t.Fatalf("relayed job = %+v", done)
	}
	ownerJobs := owner.Jobs()
	if len(ownerJobs) != 1 || ownerJobs[0].CacheKey != job.CacheKey {
		t.Fatalf("owner's jobs = %+v, want one under key %s", ownerJobs, job.CacheKey)
	}
	got, want := reportBody(t, cts.URL, job.ID), reportBody(t, ots.URL, ownerJobs[0].ID)
	if !bytes.Equal(got, want) {
		t.Errorf("the coordinator serves\n%s\nthe owner served\n%s", got, want)
	}
	cs, own := coord.Stats(), owner.Stats()
	if cs.Computations != 0 || cs.ResultEncode.Count() != 0 || cs.ResultDecodes != 0 {
		t.Errorf("relaying ran %d computations, %d encodes, %d decodes on the coordinator; want none",
			cs.Computations, cs.ResultEncode.Count(), cs.ResultDecodes)
	}
	if own.Computations != 1 || own.ResultEncode.Count() != 1 {
		t.Errorf("owner ran %d computations, %d encodes; want one each", own.Computations, own.ResultEncode.Count())
	}
	// The relayed bytes are a first-class cached result on the coordinator.
	if _, again := postJob(t, cts.URL, k, fx.request("relayed")); !again.Cached {
		t.Errorf("resubmitting a relayed job = %+v, want a cache hit", again)
	}
}

// TestJobStatusProvenanceGolden pins, byte for byte, the JobStatus JSON each
// provenance value renders as: the strings are what the parent commit
// marshaled from its five booleans.
func TestJobStatusProvenanceGolden(t *testing.T) {
	const times = `"submitted_at":"2026-01-02T03:04:05Z","started_at":"2026-01-02T03:04:05Z","finished_at":"2026-01-02T03:04:06Z"}`
	const head = `{"id":"job-000007","state":"done","cache_key":"k",`
	dirty := []string{"s1", "s2"}
	for _, c := range []struct {
		name string
		j    job
		want string
	}{
		{"computed", job{prov: provComputed}, ``},
		{"memory hit", job{prov: provMemoryHit}, `"cached":true,`},
		{"disk hit", job{prov: provDiskHit}, `"cached":true,"disk_hit":true,`},
		{"peer hit", job{prov: provPeerHit}, `"cached":true,`},
		{"partial", job{prov: provComputed, partial: true, outcome: &jobOutcome{dirtySubjects: dirty}}, `"delta_hit":true,"dirty_subjects":["s1","s2"],`},
		{"coalesced", job{prov: provCoalesced}, `"coalesced":true,`},
		{"coalesced onto a partial", job{prov: provCoalesced, partial: true, outcome: &jobOutcome{dirtySubjects: dirty}}, `"coalesced":true,"delta_hit":true,"dirty_subjects":["s1","s2"],`},
		{"recovered", job{prov: provComputed, recovered: true}, `"recovered":true,`},
		{"recovered disk hit", job{prov: provDiskHit, recovered: true}, `"cached":true,"disk_hit":true,"recovered":true,`},
	} {
		j := c.j
		at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		j.seq, j.key, j.state = 7, "k", jobDone
		j.submitted, j.started, j.finished = at.UnixNano(), at.UnixNano(), at.Add(time.Second).UnixNano()
		if got, want := string(mustJSON(t, j.statusLocked())), head+c.want+times; got != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestAlgorithmOptionsKeepContentAddresses pins the content addresses of
// fixed requests — defaults applied, knobs set, knobs set where they must be
// ignored — to the values the parent commit derived, when audits and
// recommendations each carried their own copy of the option block. The
// failure-sampling rows moved exactly once, when sampler_workers left the
// address (the 64-lane sampler's family does not depend on it): was holds
// the address each had before, which it must never take again.
func TestAlgorithmOptionsKeepContentAddresses(t *testing.T) {
	deployments := []DeploymentWire{{Name: "d", Servers: []string{"s1", "s2"}, Needed: 1, Kinds: []string{"software", "network"}}}
	for i, c := range []struct {
		req       *SubmitRequest
		want, was string
	}{
		{&SubmitRequest{Title: "t", Deployments: deployments},
			"3131d177d2e02ab5744adb187a48530dbdfe8fa4f81c657ea4202ba46697cd4d", ""},
		{&SubmitRequest{Deployments: deployments, Algorithm: "minimal-rg", Rounds: 7, Seed: 9, SamplerWorkers: 3, MaxSets: 5, MaxSize: 4, ScoreTopN: 3},
			"56734a175e2dcbfbd0b9d5e76e797f26d61ea526da5e6e340ebed6fb2672819b", ""},
		{&SubmitRequest{Deployments: deployments, Algorithm: "failure-sampling", FailureProb: 0.1},
			"967d0604433eec16d6b8817f84535090ba7f862fc022bc62878e889d388e8768",
			"6365fb815d5ef12c8364bffd575fd25fd727aba36073fc8ffa29ea52a9e9fd4f"},
		{&SubmitRequest{Deployments: deployments, Algorithm: "failure-sampling", Rounds: 2000, Seed: 42, SamplerWorkers: 4, FailureProb: 0.25, ScoreTopN: 2, MaxSets: 6, MaxSize: 3, TimeoutMS: 50},
			"d084f59ae1b04d7c9ff56ec1189a0809c6d10f52ff28aa931d979574f6c647ec",
			"14fcd885a2b4ccd07d1a2929912ec342c11f7b3ee859e1229c86c834080913a6"},
	} {
		n, _, err := c.req.normalize()
		n.DB = "fp"
		if got := n.key(); err != nil || got != c.want || got == c.was {
			t.Errorf("audit request %d: key %s, %v; want %s", i, got, err, c.want)
		}
	}
	for i, c := range []struct {
		req       *RecommendRequest
		want, was string
	}{
		{&RecommendRequest{Title: "t", Replicas: 2},
			"11eecde08342d6623a15de9aa9e4ad6f9a6615e568f2fa258611fe1a5e44343d", ""},
		{&RecommendRequest{Replicas: 2, Algorithm: "minimal-rg", Rounds: 7, Seed: 9, SamplerWorkers: 3, MaxSets: 5, MaxSize: 4, Kinds: []string{"software", "hardware"}},
			"7bf028bdbfcbc7a5d05fb80693428e197ae23a3e296af88469770c28c0cc447f", ""},
		{&RecommendRequest{Replicas: 3, Fixed: []string{"z"}, Algorithm: "failure-sampling", FailureProb: 0.1},
			"88c6d098125f963d97716060aaa4ec8e88e185c40bc10ce10bef69cc82bf437c",
			"27c41bf97c16245a6888a6e2aa46748f016a8011f5fa4da428b681a1c12f6692"},
		{&RecommendRequest{Replicas: 2, TopK: 5, Strategy: "beam", BeamWidth: 4, Algorithm: "failure-sampling", Rounds: 2000, Seed: 42, SamplerWorkers: 4, FailureProb: 0.25, MaxSets: 6, MaxSize: 3, Workers: 2},
			"1f4f653d8a45167fd41227f934da87547b9838e1455bbe943e34494f1bd6616b",
			"36053a59c1ff0023e9ccf42ca1226b2e6b257a136fefbb79310f331fd557e518"},
	} {
		n, _, err := c.req.normalize()
		n.DB, n.Nodes = "fp", []string{"a", "b", "c"}
		if got := n.key(); err != nil || got != c.want || got == c.was {
			t.Errorf("recommend request %d: key %s, %v; want %s", i, got, err, c.want)
		}
	}
}

// TestSamplingAddressesMovedOnce: a default failure-sampling audit and
// recommendation no longer take the addresses they had while the sampler's
// worker count was part of them, so a durable daemon never serves a family
// the per-round sampler computed under an address the 64-lane one answers.
func TestSamplingAddressesMovedOnce(t *testing.T) {
	deployments := []DeploymentWire{{Name: "d", Servers: []string{"s1", "s2"}, Needed: 1, Kinds: []string{"software", "network"}}}
	a, _, err := (&SubmitRequest{Deployments: deployments, Algorithm: "failure-sampling"}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	a.DB = "fp"
	if got, old := a.key(), "627589bb2d151ffb504fd4ba69217ff0ffae8dc3490b646d8013de3f35eae590"; got == old {
		t.Errorf("default failure-sampling audit still has its per-round-sampler address %s", old)
	}
	r, _, err := (&RecommendRequest{Replicas: 2, Algorithm: "failure-sampling"}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	r.DB, r.Nodes = "fp", []string{"a", "b", "c"}
	if got, old := r.key(), "115a380e8a9d3bd0170728bc6c2d27473fd6b3a29603fac50850a0da8ecffd3b"; got == old {
		t.Errorf("default failure-sampling recommendation still has its per-round-sampler address %s", old)
	}
}

// TestSamplerWorkersOutsideAddress: sampler_workers changes only speed.
// Requests differing only in it share one address and return identical
// report bytes, and a million workers are clamped to the CPUs instead of
// each getting a goroutine and an evaluator.
func TestSamplerWorkersOutsideAddress(t *testing.T) {
	mk := func(workers int) *SubmitRequest {
		r := quickRequest("workers")
		r.Algorithm, r.Rounds, r.Seed, r.SamplerWorkers = "failure-sampling", 20_000, 3, workers
		return r
	}
	var keys []string
	var bodies [][]byte
	for _, workers := range []int{1, 1_000_000} {
		n, _, err := mk(workers).normalize()
		if err != nil {
			t.Fatal(err)
		}
		if keys = append(keys, n.key()); keys[0] != keys[len(keys)-1] {
			t.Fatalf("sampler_workers=%d moved the address: %s, want %s", workers, keys[len(keys)-1], keys[0])
		}
		s := New(Config{Workers: 1})
		st := waitDone(t, s, mustSubmit(t, s, mk(workers)).ID)
		if st.State != StateDone {
			t.Fatalf("sampler_workers=%d: job %s: %s", workers, st.State, st.Error)
		}
		rep, err := s.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Audits {
			rep.Audits[i].Elapsed = 0
		}
		bodies = append(bodies, mustJSON(t, rep))
		shutdown(t, s)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("sampler_workers changed the report:\n%s\n%s", bodies[0], bodies[1])
	}
}

// kindSamples is the per-kind sample results as the codec tests take them: by
// kind name, plus the report-only edge case of a payload that is nothing but
// its title.
func kindSamples(t *testing.T) map[string]func(title string) any {
	samples := map[string]func(title string) any{
		KindAudit + "/empty": func(title string) any { return &report.Report{Title: title} },
	}
	for _, k := range jobKinds {
		samples[k.name] = fixtureFor(t, k).sample
	}
	return samples
}
