package auditd

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/placement"
	"indaas/internal/report"
	"indaas/internal/sia"
)

// deltaRecords builds records for servers s1..s4: per-server routes, disks
// and software, so each server is its own fault-graph cone.
func deltaRecords() []RecordWire {
	var out []RecordWire
	for i := 1; i <= 4; i++ {
		s := fmt.Sprintf("s%d", i)
		out = append(out, WireRecords([]deps.Record{
			deps.NewNetwork(s, "Internet", "ToR"+s, "Core1"),
			deps.NewNetwork(s, "Internet", "ToR"+s, "Core2"),
			deps.NewHardware(s, "Disk", s+"-disk"),
			deps.NewSoftware("nginx", s, "libc6", "libssl3"),
		})...)
	}
	return out
}

// deltaAuditRequest audits two deployments with disjoint server sets, so an
// ingest can dirty one deployment without touching the other.
func deltaAuditRequest(title string) *SubmitRequest {
	return &SubmitRequest{
		Title: title,
		Deployments: []DeploymentWire{
			{Name: "front", Servers: []string{"s1", "s2"}},
			{Name: "back", Servers: []string{"s3", "s4"}},
		},
	}
}

func mustIngest(t *testing.T, s *Server, records []RecordWire) IngestResponse {
	t.Helper()
	resp, err := s.Ingest(&IngestRequest{Records: records})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// auditsJSON renders a report's audits with elapsed times zeroed — the
// byte-for-byte comparison form (titles are per-job and excluded).
func auditsJSON(t *testing.T, rep *report.Report) string {
	t.Helper()
	audits := append([]report.DeploymentAudit(nil), rep.Audits...)
	for i := range audits {
		audits[i].Elapsed = 0
	}
	blob, err := json.Marshal(report.Report{Audits: audits})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// deltaSpecs are deltaAuditRequest's deployments as sia specs.
var deltaSpecs = []sia.GraphSpec{
	{Deployment: "front", Servers: []string{"s1", "s2"}},
	{Deployment: "back", Servers: []string{"s3", "s4"}},
}

// localDB builds a plain database from wire records — the ground truth side
// of every comparison here.
func localDB(t *testing.T, records []RecordWire) *depdb.DB {
	t.Helper()
	db := depdb.New()
	for _, w := range records {
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

// fullRecompute audits deltaSpecs from scratch over records.
func fullRecompute(t *testing.T, records []RecordWire) string {
	t.Helper()
	rep, err := sia.AuditDeployments(localDB(t, records).Snapshot(), "", deltaSpecs, sia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return auditsJSON(t, rep)
}

// TestDeltaHitAfterUnrelatedIngest is the headline acceptance case: one
// ingested record that no audited deployment depends on leaves the content
// address where it was, so the re-submitted audit is a plain memory hit — it
// computes nothing, writes nothing to the store, and serves the same bytes.
func TestDeltaHitAfterUnrelatedIngest(t *testing.T) {
	stor := openStore(t, t.TempDir())
	defer stor.Close()
	s := New(Config{Workers: 2, Store: stor})
	defer gracefulShutdown(t, s)
	mustIngest(t, s, deltaRecords())

	first := mustSubmit(t, s, deltaAuditRequest("cold"))
	waitDone(t, s, first.ID)
	rep1, err := s.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	// One NIC record about a server no deployment audits.
	mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare-9", Type: "NIC", Dep: "spare-9-X520"}})
	before := s.Stats()

	second := mustSubmit(t, s, deltaAuditRequest("warm"))
	if second.State != StateDone || !second.Cached || second.DeltaHit || len(second.DirtySubjects) != 0 {
		t.Fatalf("resubmission after unrelated ingest = %+v, want a plain memory hit", second)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatalf("an ingest no audited server reads moved the content address %s -> %s", first.CacheKey, second.CacheKey)
	}
	rep2, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, rep1) != auditsJSON(t, rep2) {
		t.Fatal("the resubmission's report differs from the original")
	}
	after := s.Stats()
	// A memory hit on a result computed before the ingest: a delta hit.
	if after.Computations != before.Computations || after.CacheHits != before.CacheHits+1 || after.DeltaHits != before.DeltaHits+1 || after.DeltaPartials != 0 {
		t.Fatalf("stats around the resubmission: %+v -> %+v", before, after)
	}
	if puts := after.Store.PutLatency.Count() - before.Store.PutLatency.Count(); puts != 0 {
		t.Fatalf("the resubmission wrote %d store records, want none", puts)
	}
}

// TestDeltaPartialRecomputesOnlyDirty: an ingest touching one deployment's
// server re-audits that deployment only, splices the other from the held
// audits, and still produces exactly what a full recompute would.
func TestDeltaPartialRecomputesOnlyDirty(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	records := deltaRecords()
	mustIngest(t, s, records)

	first := mustSubmit(t, s, deltaAuditRequest("cold"))
	waitDone(t, s, first.ID)

	dirtyRec := RecordWire{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}
	mustIngest(t, s, []RecordWire{dirtyRec})

	second := mustSubmit(t, s, deltaAuditRequest("delta"))
	end := waitDone(t, s, second.ID)
	if end.State != StateDone || !end.DeltaHit || end.Cached {
		t.Fatalf("partial delta job = %+v", end)
	}
	if !reflect.DeepEqual(end.DirtySubjects, []string{"s3", "s4"}) {
		t.Fatalf("DirtySubjects = %v, want the re-audited deployment's servers [s3 s4]", end.DirtySubjects)
	}
	st := s.Stats()
	if st.Computations != 2 || st.DeltaPartials != 1 || st.DeltaHits != 0 || st.DeltaDirtySubjects != 2 {
		t.Fatalf("stats after partial delta: %+v", st)
	}
	tr, err := s.Trace(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Counts["subjects_spliced"] != 1 {
		t.Fatalf("the partial job spliced %d deployments, want 1 (front)", tr.Counts["subjects_spliced"])
	}

	got, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := fullRecompute(t, append(records, dirtyRec)); auditsJSON(t, got) != want {
		t.Fatalf("spliced report diverges from full recompute:\n got %s\nwant %s", auditsJSON(t, got), want)
	}
}

// TestDeltaSpliceHoldsWholeRequest: the audits memo bounds requests, not
// deployment audits, so an audit of more deployments than it holds groups
// still re-audits only the deployment a one-server ingest dirtied.
func TestDeltaSpliceHoldsWholeRequest(t *testing.T) {
	const n = heldAudits + 44
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	var records []RecordWire
	req := &SubmitRequest{Title: "wide"}
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		for _, srv := range []string{a, b} {
			records = append(records, WireRecords([]deps.Record{
				deps.NewNetwork(srv, "Internet", "ToR"+srv, "Core1"),
				deps.NewHardware(srv, "Disk", srv+"-disk"),
			})...)
		}
		req.Deployments = append(req.Deployments, DeploymentWire{Name: fmt.Sprintf("d%d", i), Servers: []string{a, b}})
	}
	mustIngest(t, s, records)
	waitDone(t, s, mustSubmit(t, s, req).ID)

	dirtyRec := RecordWire{Kind: "software", Pgm: "etcd", HW: "a7", Deps: []string{"libc6"}}
	mustIngest(t, s, []RecordWire{dirtyRec})
	end := waitDone(t, s, mustSubmit(t, s, req).ID)
	if end.State != StateDone || !end.DeltaHit || !reflect.DeepEqual(end.DirtySubjects, []string{"a7", "b7"}) {
		t.Fatalf("resubmission after a one-server ingest = %+v, want a splice re-auditing [a7 b7]", end)
	}
	tr, err := s.Trace(end.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Counts["subjects_spliced"] != n-1 {
		t.Fatalf("the splice took %d held deployment audits, want %d", tr.Counts["subjects_spliced"], n-1)
	}

	got, err := s.Report(end.ID)
	if err != nil {
		t.Fatal(err)
	}
	inline := *req
	inline.Records = append(records, dirtyRec)
	full, err := s.Report(waitDone(t, s, mustSubmit(t, s, &inline).ID).ID)
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, got) != auditsJSON(t, full) {
		t.Fatal("the wide splice diverges from a full recompute")
	}
}

// TestMemoGroups pins the memo's unit: a group is dropped whole once it is
// the least recently used past capacity, a key answers from the newest group
// holding it, and a group no key answers from any more frees its slot.
func TestMemoGroups(t *testing.T) {
	m := newMemo[int](2)
	m.PutAll([]string{"a", "b", "c"}, []int{1, 2, 3})
	m.Put("x", 9)
	if v, ok := m.Get("b"); !ok || v != 2 || m.Len() != 2 {
		t.Fatalf("Get(b) = %d, %v with %d groups", v, ok, m.Len())
	}
	m.PutAll([]string{"c", "d"}, []int{30, 4}) // drops x's group, the oldest
	if _, ok := m.Get("x"); ok {
		t.Fatal("x outlived its group")
	}
	if v, _ := m.Get("c"); v != 30 {
		t.Fatalf("c answers %d, want the newest group's 30", v)
	}
	m.Put("d", 40) // drops {a, b}
	if _, ok := m.Get("a"); ok {
		t.Fatal("a outlived its group")
	}
	m.Put("c", 300) // {c, d} answers nothing now: it goes, and {d} stays
	if v, ok := m.Get("d"); !ok || v != 40 || m.Len() != 2 {
		t.Fatalf("Get(d) = %d, %v with %d groups, want 40 with 2", v, ok, m.Len())
	}
	m.Remove("d")
	if _, ok := m.Get("d"); ok || m.Len() != 1 {
		t.Fatalf("after Remove(d): %d groups, d held %v", m.Len(), ok)
	}
	m.PutAll([]string{"e", "e"}, []int{5, 6}) // a repeated key keeps the later value
	if v, _ := m.Get("e"); v != 6 || m.Len() != 2 {
		t.Fatalf("e = %d with %d groups", v, m.Len())
	}
	if v, _ := m.Get("c"); v != 300 {
		t.Fatalf("c = %d, want 300", v)
	}
}

// TestDeltaDifferentialRandomized is the property test: across a randomized
// ingest sequence — batches that hit audited servers, miss them, or both —
// each resubmission is answered the way the records its deployments read say
// it must be (a hit for a state already audited, a splice re-auditing exactly
// the deployments whose records are new, a full computation when both are),
// and every served report equals the full recompute byte for byte.
func TestDeltaDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	var all []RecordWire
	mirror := depdb.New()
	ingest := func(batch []RecordWire) {
		mustIngest(t, s, batch)
		all = append(all, batch...)
		for _, w := range batch {
			r, err := w.Record()
			if err != nil {
				t.Fatal(err)
			}
			if err := mirror.Put(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// audited names each deployment state — and each pair of them — that a
	// submission has already computed.
	audited := make(map[string]bool)
	scopes := func() (front, back string) {
		snap := mirror.Snapshot()
		return "front " + snap.Scope(deltaSpecs[0].Servers, nil), "back " + snap.Scope(deltaSpecs[1].Servers, nil)
	}
	ingest(deltaRecords())
	front, back := scopes()
	waitDone(t, s, mustSubmit(t, s, deltaAuditRequest("cold")).ID)
	audited[front], audited[back], audited[front+back] = true, true, true

	randomBatch := func(i int) []RecordWire {
		var batch []RecordWire
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			subj := fmt.Sprintf("u%d", rng.Intn(5)+1) // unrelated machine
			if rng.Intn(2) == 0 {
				subj = fmt.Sprintf("s%d", rng.Intn(4)+1) // audited server
			}
			switch rng.Intn(3) {
			case 0:
				batch = append(batch, RecordWire{Kind: "network", Src: subj, Dst: "Internet",
					Route: []string{fmt.Sprintf("ToR-x%d-%d", i, j), "Core1"}})
			case 1:
				batch = append(batch, RecordWire{Kind: "hardware", HW: subj, Type: "NIC",
					Dep: fmt.Sprintf("%s-nic-%d-%d", subj, i, j)})
			default:
				batch = append(batch, RecordWire{Kind: "software", Pgm: fmt.Sprintf("svc%d%d", i, j),
					HW: subj, Deps: []string{"libc6"}})
			}
		}
		return batch
	}

	paths := make(map[string]int)
	for i := 0; i < 15; i++ {
		ingest(randomBatch(i))
		front, back := scopes()
		var wantDirty []string
		if !audited[front] {
			wantDirty = append(wantDirty, deltaSpecs[0].Servers...)
		}
		if !audited[back] {
			wantDirty = append(wantDirty, deltaSpecs[1].Servers...)
		}
		st := mustSubmit(t, s, deltaAuditRequest(fmt.Sprintf("round-%d", i)))
		end := waitDone(t, s, st.ID)
		if end.State != StateDone {
			t.Fatalf("round %d finished %s (%s)", i, end.State, end.Error)
		}
		switch {
		case audited[front+back]:
			paths["hit"]++
			if !end.Cached || end.DeltaHit {
				t.Fatalf("round %d: a state already audited was not a plain hit: %+v", i, end)
			}
		case len(wantDirty) == 4:
			paths["full"]++
			if end.Cached || end.DeltaHit || len(end.DirtySubjects) != 0 {
				t.Fatalf("round %d: both deployments moved, want a full computation: %+v", i, end)
			}
		default:
			paths["splice"]++
			if end.Cached || !end.DeltaHit || !reflect.DeepEqual(end.DirtySubjects, wantDirty) {
				t.Fatalf("round %d: want a splice re-auditing %v, got %+v", i, wantDirty, end)
			}
		}
		audited[front], audited[back], audited[front+back] = true, true, true
		got, err := s.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if auditsJSON(t, got) != fullRecompute(t, all) {
			t.Fatalf("round %d: served report diverges from full recompute", i)
		}
	}
	if paths["hit"] == 0 || paths["splice"] == 0 {
		t.Fatalf("randomized run exercised too few paths: %v", paths)
	}
	st := s.Stats()
	// Every round follows an ingest, so each hit is a delta hit.
	if st.CacheHits+st.Computations != st.Submitted || st.DeltaPartials != int64(paths["splice"]) || st.DeltaHits != int64(paths["hit"]) {
		t.Fatalf("job accounting inconsistent with paths %v: %+v", paths, st)
	}
}

// TestRecommendDeltaSeedsScores: after an ingest that touches one pool node,
// a repeated recommendation re-audits only the candidates containing that
// node — the rest are in the server's candidate memo under unchanged
// addresses — and ranks exactly as a full search; after an unrelated ingest
// it is a plain hit.
func TestRecommendDeltaSeedsScores(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	mustIngest(t, s, recommendRecords()) // n1..n6

	// The pool is pinned explicitly: a record-less pool resolves from the
	// database's subjects, so ingesting ANY new machine would legitimately
	// change the search space (and thus the content address).
	pool := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	req := func(title string) *RecommendRequest {
		return &RecommendRequest{Title: title, Nodes: pool, Replicas: 2, TopK: 3, Strategy: "exact"}
	}
	first, err := s.Recommend(req("cold"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	res1 := mustRecommendResult(t, s, first.ID)
	if res1.Evaluated != 15 {
		t.Fatalf("cold search evaluated %d, want 15", res1.Evaluated)
	}

	// Unrelated ingest → the same address, a plain hit.
	mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare-1", Type: "Disk", Dep: "spare-disk"}})
	second, err := s.Recommend(req("unrelated"))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached || second.CacheKey != first.CacheKey {
		t.Fatalf("recommend after unrelated ingest = %+v, want a plain hit on %s", second, first.CacheKey)
	}

	// n1 grows a dependency → only the five n1-containing candidates move.
	mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "n1", Deps: []string{"libc6"}}})
	third, err := s.Recommend(req("partial"))
	if err != nil {
		t.Fatal(err)
	}
	end := waitDone(t, s, third.ID)
	if end.State != StateDone || end.Cached || end.CacheKey == first.CacheKey || len(end.DirtySubjects) != 0 {
		t.Fatalf("recommend after an n1 ingest = %+v", end)
	}
	res3 := mustRecommendResult(t, s, third.ID)
	if res3.Evaluated != 5 {
		t.Fatalf("partial search evaluated %d candidates, want the 5 containing n1", res3.Evaluated)
	}

	// Ground truth: a full search over an equivalent local database.
	db := localDB(t, append(append([]RecordWire(nil), recommendRecords()...),
		RecordWire{Kind: "hardware", HW: "spare-1", Type: "Disk", Dep: "spare-disk"},
		RecordWire{Kind: "software", Pgm: "etcd", HW: "n1", Deps: []string{"libc6"}}))
	full, err := placement.Search(context.Background(), db,
		placement.Request{Nodes: pool, Replicas: 2, TopK: 3, Strategy: placement.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Top) != len(res3.Rankings) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(full.Top), len(res3.Rankings))
	}
	for i := range full.Top {
		if !reflect.DeepEqual(full.Top[i].Nodes, res3.Rankings[i].Nodes) || full.Top[i].Score.Independence != res3.Rankings[i].Score {
			t.Fatalf("rank %d: partial %v vs full %v", i+1, res3.Rankings[i], full.Top[i])
		}
	}
}

func mustRecommendResult(t *testing.T, s *Server, id string) *RecommendResponse {
	t.Helper()
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := res.(*RecommendResponse)
	if !ok {
		t.Fatalf("job %s result is %T", id, res)
	}
	return resp
}

// TestDeltaSurvivesRestart: the address is a function of the records the
// audit reads, which a restarted durable daemon restores — so after a restart
// and an ingest no audited server reads, the resubmission is a disk hit under
// the pre-restart address with zero computations.
func TestDeltaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	mustIngest(t, s1, deltaRecords())
	first := mustSubmit(t, s1, deltaAuditRequest("pre-restart"))
	waitDone(t, s1, first.ID)
	gracefulShutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	db, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, DB: db, Store: st2})
	defer gracefulShutdown(t, s2)

	mustIngest(t, s2, []RecordWire{{Kind: "hardware", HW: "spare-2", Type: "NIC", Dep: "spare-2-nic"}})
	after := mustSubmit(t, s2, deltaAuditRequest("post-restart"))
	if after.State != StateDone || !after.DiskHit || after.CacheKey != first.CacheKey {
		t.Fatalf("post-restart resubmission = %+v, want a disk hit on %s", after, first.CacheKey)
	}
	if got := s2.Stats().Computations; got != 0 {
		t.Fatalf("restarted daemon ran %d computations, want 0", got)
	}
}

// TestDeltaPlanSkipsOnlyOlderSameLogAncestors: an address names the records
// a result read, not the database it was computed in. A result computed
// against ANOTHER database whose audited servers hold the records the server
// now holds — it differs only in machines nobody audits — is a plain hit;
// across generations of the server's own database, unrelated ingests keep
// the address and a dirtying one splices. Either way the served report is
// the full recompute.
func TestDeltaPlanSkipsOnlyOlderSameLogAncestors(t *testing.T) {
	dirtyRec := RecordWire{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}
	spare := func(i int) RecordWire {
		return RecordWire{Kind: "hardware", HW: fmt.Sprintf("spare-%d", i), Type: "NIC", Dep: fmt.Sprintf("nic-%d", i)}
	}

	for _, crossDB := range []bool{false, true} {
		t.Run(fmt.Sprintf("crossDB=%v", crossDB), func(t *testing.T) {
			s := New(Config{Workers: 2})
			defer shutdown(t, s)

			var crossKey, crossJSON string
			if crossDB {
				// A result computed elsewhere, against a database that already
				// holds the dirtying record and one spare the server never sees.
				other := localDB(t, append(deltaRecords(), dirtyRec, spare(99))).Snapshot()
				n, _, err := deltaAuditRequest("").normalize()
				if err != nil {
					t.Fatal(err)
				}
				n.address(other, false)
				crossKey = n.key()
				rep, err := sia.AuditDeployments(other, "", deltaSpecs, sia.Options{})
				if err != nil {
					t.Fatal(err)
				}
				crossJSON = auditsJSON(t, rep)
				enc, err := encodeResult(auditKind, rep)
				if err != nil {
					t.Fatal(err)
				}
				s.cache.Put(crossKey, enc)
			}

			// Generations of the server's own database: one computed, two
			// that only add spares, then one that dirties s3.
			all := deltaRecords()
			mustIngest(t, s, all)
			g1 := mustSubmit(t, s, deltaAuditRequest("g1"))
			waitDone(t, s, g1.ID)
			for i := 1; i <= 2; i++ {
				mustIngest(t, s, []RecordWire{spare(i)})
				all = append(all, spare(i))
				if st := mustSubmit(t, s, deltaAuditRequest("unrelated")); !st.Cached || st.CacheKey != g1.CacheKey {
					t.Fatalf("generation %d moved the address or missed: %+v", i+1, st)
				}
			}
			mustIngest(t, s, []RecordWire{dirtyRec, spare(3)})
			all = append(all, dirtyRec, spare(3))

			before := s.Stats()
			st := mustSubmit(t, s, deltaAuditRequest("planned"))
			end := waitDone(t, s, st.ID)
			after := s.Stats()
			if crossDB {
				if st.State != StateDone || !st.Cached || st.CacheKey != crossKey || after.Computations != before.Computations {
					t.Fatalf("the other database's result was not a plain hit on %s: %+v", crossKey, st)
				}
			} else if end.Cached || !end.DeltaHit || !reflect.DeepEqual(end.DirtySubjects, []string{"s3", "s4"}) || after.DeltaPartials != before.DeltaPartials+1 {
				t.Fatalf("the dirtying generation = %+v, want a splice re-auditing [s3 s4]", end)
			}

			got, err := s.Report(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if auditsJSON(t, got) != fullRecompute(t, all) {
				t.Fatal("planned report diverges from the full recompute")
			}
			if crossDB && auditsJSON(t, got) != crossJSON {
				t.Fatal("the hit served something other than the other database's result")
			}
		})
	}
}
