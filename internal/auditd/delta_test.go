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

// TestDeltaHitAfterUnrelatedIngest is the headline acceptance case: one
// ingested record that no audited deployment depends on must not force a
// recomputation — the re-submitted audit is answered instantly from the
// lineage, byte for byte.
func TestDeltaHitAfterUnrelatedIngest(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	mustIngest(t, s, deltaRecords())

	first := mustSubmit(t, s, deltaAuditRequest("cold"))
	waitDone(t, s, first.ID)
	rep1, err := s.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	// One NIC record about a server no deployment audits.
	mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare-9", Type: "NIC", Dep: "spare-9-X520"}})

	second := mustSubmit(t, s, deltaAuditRequest("warm"))
	if second.State != StateDone || !second.DeltaHit || second.Cached {
		t.Fatalf("resubmission after unrelated ingest = %+v, want an instant delta hit", second)
	}
	if second.CacheKey == first.CacheKey {
		t.Fatal("the ingest must have changed the content address")
	}
	if len(second.DirtySubjects) != 0 {
		t.Fatalf("unrelated ingest reported dirty subjects %v", second.DirtySubjects)
	}
	rep2, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, rep1) != auditsJSON(t, rep2) {
		t.Fatal("delta-served report differs from the original")
	}
	st := s.Stats()
	if st.Computations != 1 || st.DeltaHits != 1 || st.DeltaPartials != 0 {
		t.Fatalf("stats after delta hit: %+v", st)
	}
	// The adopted result is a first-class cache entry: a third identical
	// submission is a plain content-addressed hit.
	third := mustSubmit(t, s, deltaAuditRequest("again"))
	if !third.Cached || third.DeltaHit {
		t.Fatalf("third submission = %+v, want a plain cache hit", third)
	}
}

// TestDeltaPartialRecomputesOnlyDirty: an ingest touching one deployment's
// server re-audits that deployment only, splices the other from the
// ancestor, and still produces exactly what a full recompute would.
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
	if end.State != StateDone || !end.DeltaHit {
		t.Fatalf("partial delta job = %+v", end)
	}
	if !reflect.DeepEqual(end.DirtySubjects, []string{"s3"}) {
		t.Fatalf("DirtySubjects = %v, want [s3]", end.DirtySubjects)
	}
	st := s.Stats()
	if st.Computations != 2 || st.DeltaPartials != 1 || st.DeltaHits != 0 || st.DeltaDirtySubjects != 1 {
		t.Fatalf("stats after partial delta: %+v", st)
	}

	// Ground truth: a full recompute over the same post-ingest records.
	got, err := s.Report(second.ID)
	if err != nil {
		t.Fatal(err)
	}
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
	want, err := sia.AuditDeployments(db.Snapshot(), "", []sia.GraphSpec{
		{Deployment: "front", Servers: []string{"s1", "s2"}},
		{Deployment: "back", Servers: []string{"s3", "s4"}},
	}, sia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, got) != auditsJSON(t, want) {
		t.Fatalf("spliced report diverges from full recompute:\n got %s\nwant %s", auditsJSON(t, got), auditsJSON(t, want))
	}
}

// TestDeltaDifferentialRandomized is the property test: across a randomized
// ingest sequence — batches that hit audited servers, miss them, or both —
// every delta-served report must equal the full recompute byte for byte.
func TestDeltaDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	var all []RecordWire
	ingest := func(batch []RecordWire) {
		mustIngest(t, s, batch)
		all = append(all, batch...)
	}
	ingest(deltaRecords())

	specs := []sia.GraphSpec{
		{Deployment: "front", Servers: []string{"s1", "s2"}},
		{Deployment: "back", Servers: []string{"s3", "s4"}},
	}
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

	for i := 0; i < 15; i++ {
		ingest(randomBatch(i))
		st := mustSubmit(t, s, deltaAuditRequest(fmt.Sprintf("round-%d", i)))
		end := waitDone(t, s, st.ID)
		if end.State != StateDone {
			t.Fatalf("round %d finished %s (%s)", i, end.State, end.Error)
		}
		got, err := s.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		db := depdb.New()
		for _, w := range all {
			r, err := w.Record()
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		want, err := sia.AuditDeployments(db.Snapshot(), "", specs, sia.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if auditsJSON(t, got) != auditsJSON(t, want) {
			t.Fatalf("round %d: delta result diverges from full recompute", i)
		}
	}
	st := s.Stats()
	if st.DeltaHits == 0 || st.DeltaPartials == 0 {
		t.Fatalf("randomized run exercised no delta paths: %+v", st)
	}
	// Partial jobs run a (reduced) computation; only whole-result adoptions
	// and cache hits skip the queue entirely.
	if st.DeltaHits+st.CacheHits+st.Computations != st.Submitted {
		t.Fatalf("job accounting inconsistent: %+v", st)
	}
	if st.DeltaPartials > st.Computations {
		t.Fatalf("more partials than computations: %+v", st)
	}
}

// TestRecommendDeltaSeedsScores: after an ingest that touches one pool node,
// a repeated recommendation re-audits only the candidates containing that
// node; after an unrelated ingest it does not search at all.
func TestRecommendDeltaSeedsScores(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	mustIngest(t, s, recommendRecords()) // n1..n6

	// The pool is pinned explicitly: a record-less pool resolves from the
	// database's subjects, so ingesting ANY new machine would legitimately
	// change the search space (and thus the lineage identity).
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

	// Unrelated ingest → whole-result adoption.
	mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare-1", Type: "Disk", Dep: "spare-disk"}})
	second, err := s.Recommend(req("adopted"))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.DeltaHit || len(second.DirtySubjects) != 0 {
		t.Fatalf("recommend after unrelated ingest = %+v, want instant delta hit", second)
	}

	// n1 grows a dependency → only the five n1-containing candidates move.
	mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: "etcd", HW: "n1", Deps: []string{"libc6"}}})
	third, err := s.Recommend(req("partial"))
	if err != nil {
		t.Fatal(err)
	}
	end := waitDone(t, s, third.ID)
	if !end.DeltaHit || !reflect.DeepEqual(end.DirtySubjects, []string{"n1"}) {
		t.Fatalf("partial recommend = %+v", end)
	}
	res3 := mustRecommendResult(t, s, third.ID)
	if res3.Evaluated != 5 {
		t.Fatalf("partial delta evaluated %d candidates, want the 5 containing n1", res3.Evaluated)
	}

	// Ground truth: a full search over an equivalent local database.
	db := depdb.New()
	for _, w := range append(append([]RecordWire(nil), recommendRecords()...),
		RecordWire{Kind: "hardware", HW: "spare-1", Type: "Disk", Dep: "spare-disk"},
		RecordWire{Kind: "software", Pgm: "etcd", HW: "n1", Deps: []string{"libc6"}}) {
		r, err := w.Record()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	full, err := placement.Search(context.Background(), db,
		placement.Request{Nodes: pool, Replicas: 2, TopK: 3, Strategy: placement.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Top) != len(res3.Rankings) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(full.Top), len(res3.Rankings))
	}
	for i := range full.Top {
		if !reflect.DeepEqual(full.Top[i].Nodes, res3.Rankings[i].Nodes) {
			t.Fatalf("rank %d: delta %v vs full %v", i+1, res3.Rankings[i].Nodes, full.Top[i].Nodes)
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

// TestDeltaSurvivesRestart: the lineage index is in-memory, but a restarted
// durable daemon re-anchors it from its first disk hit — so ingest-then-
// re-audit keeps delta-hitting across restarts.
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

	// First post-restart submission: a disk hit that anchors the lineage.
	anchor := mustSubmit(t, s2, deltaAuditRequest("anchor"))
	if anchor.State != StateDone || !anchor.DiskHit {
		t.Fatalf("anchor = %+v, want a disk hit", anchor)
	}
	// Ingest-then-resubmit must now delta-hit with zero computations.
	mustIngest(t, s2, []RecordWire{{Kind: "hardware", HW: "spare-2", Type: "NIC", Dep: "spare-2-nic"}})
	after := mustSubmit(t, s2, deltaAuditRequest("post-restart"))
	if after.State != StateDone || !after.DeltaHit {
		t.Fatalf("post-restart delta = %+v", after)
	}
	if got := s2.Stats().Computations; got != 0 {
		t.Fatalf("restarted daemon ran %d computations, want 0", got)
	}
}

// exhaustiveAuditPlan is the planner's reference: the loop as it was before
// ancestors were skipped — diff every retained generation, newest first; the
// first clean one wins outright, else the newest dirty one.
func exhaustiveAuditPlan(entries []*lineageEntry, snap *depdb.Snapshot, specs []sia.GraphSpec) (chosen *lineageEntry, subjects []string) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.fp == snap.Fingerprint() {
			continue
		}
		diff := e.snap.Diff(snap)
		if diff.Empty() {
			continue
		}
		dirty, subj := sia.DirtyDeployments(specs, diff)
		clean := true
		for _, d := range dirty {
			clean = clean && !d
		}
		if clean {
			return e, nil
		}
		if chosen == nil {
			chosen, subjects = e, subj
		}
	}
	return chosen, subjects
}

// TestDeltaPlanSkipsOnlyOlderSameLogAncestors: with three retained
// generations of one request and the newest of them dirty, the planner —
// which no longer diffs the older generations of the same log — must choose
// what the exhaustive loop chooses. A clean ancestor from ANOTHER database,
// older than all of them, must still be found and adopted: the skip applies
// to same-log entries only.
func TestDeltaPlanSkipsOnlyOlderSameLogAncestors(t *testing.T) {
	specs := []sia.GraphSpec{
		{Deployment: "front", Servers: []string{"s1", "s2"}},
		{Deployment: "back", Servers: []string{"s3", "s4"}},
	}
	dirtyRec := RecordWire{Kind: "software", Pgm: "etcd", HW: "s3", Deps: []string{"libc6"}}
	spare := func(i int) RecordWire {
		return RecordWire{Kind: "hardware", HW: fmt.Sprintf("spare-%d", i), Type: "NIC", Dep: fmt.Sprintf("nic-%d", i)}
	}
	localDB := func(records []RecordWire) *depdb.DB {
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
	const crossKey = "cross-database-ancestor"

	for _, crossDB := range []bool{false, true} {
		t.Run(fmt.Sprintf("crossDB=%v", crossDB), func(t *testing.T) {
			s := New(Config{Workers: 2})
			defer shutdown(t, s)
			n, _, err := deltaAuditRequest("").normalize()
			if err != nil {
				t.Fatal(err)
			}
			reqKey := n.requestKey()

			var crossJSON string
			if crossDB {
				// The oldest lineage entry: a different database that already
				// holds the dirtying record and differs from the final server
				// database only in machines nobody audits.
				other := localDB(append(deltaRecords(), dirtyRec, spare(99)))
				rep, err := sia.AuditDeployments(other.Snapshot(), "", specs, sia.Options{})
				if err != nil {
					t.Fatal(err)
				}
				crossJSON = auditsJSON(t, rep)
				enc, err := encodeResult(auditKind, rep)
				if err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				s.cache.Put(crossKey, enc)
				s.lineage.addLocked(&lineageReg{reqKey: reqKey, entry: &lineageEntry{
					resultKey: crossKey, fp: other.Fingerprint(), snap: other.Snapshot(), specs: specs,
				}}, nil)
				s.mu.Unlock()
			}

			// Three same-log generations: one computed, two adopted.
			all := deltaRecords()
			mustIngest(t, s, all)
			waitDone(t, s, mustSubmit(t, s, deltaAuditRequest("g1")).ID)
			for i := 1; i <= 2; i++ {
				mustIngest(t, s, []RecordWire{spare(i)})
				all = append(all, spare(i))
				if st := mustSubmit(t, s, deltaAuditRequest("adopt")); !st.DeltaHit || len(st.DirtySubjects) != 0 {
					t.Fatalf("generation %d was not adopted whole: %+v", i+1, st)
				}
			}
			// The newest generation goes dirty.
			mustIngest(t, s, []RecordWire{dirtyRec, spare(3)})
			all = append(all, dirtyRec, spare(3))

			snap, err := s.resolveDB(nil)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			entries := s.lineage.lookupLocked(reqKey)
			s.mu.Unlock()
			wantGens := 3
			if crossDB {
				wantGens = 4
			}
			if len(entries) != wantGens {
				t.Fatalf("lineage holds %d generations, want %d", len(entries), wantGens)
			}
			chosen, wantDirty := exhaustiveAuditPlan(entries, snap, specs)
			if chosen == nil {
				t.Fatal("the exhaustive planner found no ancestor")
			}
			if crossDB != (chosen.resultKey == crossKey) || crossDB != (len(wantDirty) == 0) {
				t.Fatalf("reference plan chose %q dirty %v with crossDB=%v", chosen.resultKey, wantDirty, crossDB)
			}

			before := s.Stats()
			st := mustSubmit(t, s, deltaAuditRequest("planned"))
			if crossDB && st.State != StateDone {
				t.Fatalf("a clean ancestor must be adopted within the submit: %+v", st)
			}
			end := waitDone(t, s, st.ID)
			if end.State != StateDone || !end.DeltaHit {
				t.Fatalf("planned job = %+v", end)
			}
			if !reflect.DeepEqual(end.DirtySubjects, wantDirty) {
				t.Fatalf("DirtySubjects = %v, exhaustive plan says %v", end.DirtySubjects, wantDirty)
			}
			after := s.Stats()
			hits, partials := after.DeltaHits-before.DeltaHits, after.DeltaPartials-before.DeltaPartials
			if crossDB && (hits != 1 || partials != 0) || !crossDB && (hits != 0 || partials != 1) {
				t.Fatalf("crossDB=%v: the planned job counted %d adoptions and %d partials", crossDB, hits, partials)
			}

			got, err := s.Report(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sia.AuditDeployments(localDB(all).Snapshot(), "", specs, sia.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if auditsJSON(t, got) != auditsJSON(t, full) {
				t.Fatal("planned report diverges from the full recompute")
			}
			if crossDB && auditsJSON(t, got) != crossJSON {
				t.Fatal("the adopted report is not the cross-database ancestor's")
			}
		})
	}
}
