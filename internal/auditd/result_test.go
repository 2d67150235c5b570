package auditd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"indaas/internal/report"
	"indaas/internal/store"
)

// Invariants of holding a result once, as bytes: the title splice is
// byte-identical to re-encoding a retitled struct, a finished job retains a
// handle and nothing else, and no read path runs a codec.

// referenceRetitle is the pre-bytes serving path, kept as the oracle: a
// shallow copy of the decoded result under the job's title, which the old
// report route then marshaled.
func referenceRetitle(res any, title string) any {
	switch v := res.(type) {
	case *report.Report:
		cp := *v
		cp.Title = title
		return &cp
	case *RecommendResponse:
		cp := *v
		cp.Title = title
		return &cp
	case *PrivateAuditResponse:
		cp := *v
		cp.Title = title
		return &cp
	}
	return res
}

// TestTitleSpliceMatchesReencode is the differential test of the byte path:
// for every result kind, stored under every adversarial title, and served
// under every other, head(title)+stored bytes equals
// json.Marshal(retitle(decode(stored), title)) — through a fresh encode, a
// disk envelope and a peer payload alike.
func TestTitleSpliceMatchesReencode(t *testing.T) {
	titles := []string{
		"", "plain", `"quoted" \ back\\slash\`, `<script>&amp;</script>`, "ünï → 日本語 🙂",
		"line\nbreak\ttab\x00nul\x1f", "sep\u2028ara\u2029tors", "bad utf8 \xff\xfe", `ends in a backslash \`,
		`","audits":[]}`, `\"`, strings.Repeat("long ", 400),
	}
	rng := rand.New(rand.NewSource(16))
	alphabet := []rune(`ab"\/<>&{}[]:,` + "\n\u2028é日\x00")
	for i := 0; i < 64; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		titles = append(titles, b.String())
	}
	results := kindSamples(t) // every registered kind, plus a report that is nothing but its title

	for name, build := range results {
		kindName, _, _ := strings.Cut(name, "/")
		kind := kindByName(kindName)
		var canonical []byte
		for _, storedAs := range titles {
			fresh, err := encodeResult(kind, build(storedAs))
			if err != nil {
				t.Fatalf("%s stored as %q: %v", name, storedAs, err)
			}
			if canonical == nil {
				canonical = fresh.obj
			} else if !bytes.Equal(fresh.obj, canonical) {
				t.Fatalf("%s: stored bytes depend on the title it was computed under (%q):\n%s\n%s", name, storedAs, fresh.obj, canonical)
			}
			fromDisk, err := parseEnvelope(legacyEnvelope(t, kindName, build(storedAs)))
			if err != nil {
				t.Fatalf("%s stored as %q: reading a legacy envelope: %v", name, storedAs, err)
			}
			fromPeer, err := EncodedResultFromPayload(append(mustJSON(t, build(storedAs)), '\n'))
			if err != nil {
				t.Fatalf("%s stored as %q: adopting a peer payload: %v", name, storedAs, err)
			}
			for source, got := range map[string]*EncodedResult{"disk": fromDisk, "peer": fromPeer} {
				if got.kind != kind || !bytes.Equal(got.obj, canonical) {
					t.Fatalf("%s stored as %q: %s adoption = %s %s, want %s", name, storedAs, source, got.kind.name, got.obj, canonical)
				}
			}
		}
		stored := &EncodedResult{kind: kind, obj: canonical}
		decoded, err := stored.Decode("")
		if err != nil {
			t.Fatal(err)
		}
		for _, title := range titles {
			want := append(mustJSON(t, referenceRetitle(decoded, title)), '\n')
			if got := servedBytes(stored, title); !bytes.Equal(got, want) {
				t.Errorf("%s served as %q:\n got %s\nwant %s", name, title, got, want)
			}
			if !utf8.ValidString(title) {
				continue // a decode turns invalid bytes into U+FFFD; only the bytes are comparable
			}
			back, err := stored.Decode(title)
			if err != nil || !bytes.Equal(mustJSON(t, back), want[:len(want)-1]) {
				t.Errorf("%s decoded as %q re-encodes to %s (%v)", name, title, mustJSON(t, back), err)
			}
		}
	}
}

// liveHeap is the heap still reachable after two collections: the second
// also empties sync.Pool's victim cache, where encoding/json parks a
// report-sized buffer.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFinishedJobsRetainOnlyEncodedResults is the retention contract: after
// more cold k=16 audits than the memory tier holds, on a store-less daemon,
// the live heap the jobs added is their encoded results still in the tier
// (≤ 1.2× their size — no second, decoded copy anywhere) plus ≤ 2 KB per
// job for its handle and trace; the evicted jobs answer 410
// with a resubmit hint while their handles still poll; and the same
// sequence on a durable daemon answers every report, the evicted ones from
// disk.
func TestFinishedJobsRetainOnlyEncodedResults(t *testing.T) {
	const tier, jobs = 4, 12
	run := func(t *testing.T, cfg Config) (*Server, []JobStatus, uint64) {
		s, req := fig7Server(t, 16, cfg)
		before := liveHeap()
		var done []JobStatus
		for i := 0; i < jobs; i++ {
			r := *req
			r.Deployments = []DeploymentWire{{Name: fmt.Sprintf("cold-%d", i), Servers: req.Deployments[0].Servers}}
			st := waitDone(t, s, mustSubmit(t, s, &r).ID)
			if st.State != StateDone || st.Cached || st.DeltaHit {
				t.Fatalf("job %d was not a cold computation: %+v", i, st)
			}
			done = append(done, st)
		}
		return s, done, liveHeap() - before
	}

	t.Run("memory-only", func(t *testing.T) {
		s, done, grew := run(t, Config{CacheEntries: tier})
		var held int
		for _, st := range done[jobs-tier:] {
			enc, err := s.Cached(st.CacheKey)
			if err != nil {
				t.Fatalf("job %s should still be in the %d-entry tier: %v", st.ID, tier, err)
			}
			held += len(enc.obj)
		}
		t.Logf("%d jobs, %d results of %d KB in the tier: live heap grew %d KB (%.2f× the held bytes)",
			jobs, tier, held/tier>>10, grew>>10, float64(grew)/float64(held))
		if limit := uint64(held)*12/10 + (jobs-tier)*2048; grew > limit {
			t.Errorf("live heap grew %d bytes over %d finished jobs; %d encoded bytes are held, so the limit is %d", grew, jobs, held, limit)
		}
		h := s.Handler()
		for i, st := range done {
			if _, err := s.Status(st.ID); err != nil {
				t.Fatalf("job %s must still poll: %v", st.ID, err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/audits/"+st.ID+"/report", nil))
			_, err := s.Report(st.ID)
			if i >= jobs-tier {
				if rec.Code != 200 || err != nil {
					t.Errorf("job %s is in the tier: HTTP %d, Report: %v", st.ID, rec.Code, err)
				}
				continue
			}
			if rec.Code != http.StatusGone || httpStatus(err) != http.StatusGone || !strings.Contains(rec.Body.String(), "resubmit") {
				t.Errorf("evicted job %s: HTTP %d %s, Report: %v — want 410 with a resubmit hint", st.ID, rec.Code, rec.Body, err)
			}
		}
	})

	t.Run("durable", func(t *testing.T) {
		stor, err := store.Open(store.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer stor.Close()
		s, done, _ := run(t, Config{CacheEntries: tier, Store: stor})
		before := s.Stats()
		h := s.Handler()
		for _, st := range done {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/audits/"+st.ID+"/report", nil))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"deployment":"cold-`) {
				t.Fatalf("job %s on a durable daemon: HTTP %d", st.ID, rec.Code)
			}
		}
		after := s.Stats()
		if reads := after.Store.GetLatency.Count() - before.Store.GetLatency.Count(); reads != jobs-tier {
			t.Errorf("%d reports came from disk, want the %d the tier evicted", reads, jobs-tier)
		}
		if after.ResultDecodes != before.ResultDecodes || after.ResultEncode.Count() != before.ResultEncode.Count() {
			t.Errorf("serving from disk ran a codec: %d decodes, %d encodes", after.ResultDecodes-before.ResultDecodes, after.ResultEncode.Count()-before.ResultEncode.Count())
		}
	})
}

// codecCounts reads the two counters every byte-path claim rests on.
func codecCounts(s *Server) (encodes, decodes int64) {
	st := s.Stats()
	return int64(st.ResultEncode.Count()), st.ResultDecodes
}

// TestReadPathsRunNoCodec is the counter proof behind "hit paths run no
// codec": exactly one encode per computed result, and neither an encode nor
// a decode on a memory-hit read, a disk-hit read or a /v1/cache read.
func TestReadPathsRunNoCodec(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	req := quickRequest("computed")
	cold := waitDone(t, s1, mustSubmit(t, s1, req).ID)
	if enc, dec := codecCounts(s1); enc != 1 || dec != 0 {
		t.Fatalf("a cold computation ran %d encodes and %d decodes, want exactly one encode", enc, dec)
	}
	fetch := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
		}
		return string(body)
	}
	req.Title = `memory "hit"`
	hit := mustSubmit(t, s1, req)
	if !hit.Cached || hit.DiskHit {
		t.Fatalf("resubmission = %+v, want a memory hit", hit)
	}
	first := fetch(ts1.URL + "/v1/audits/" + cold.ID + "/report")
	memRead := fetch(ts1.URL + "/v1/audits/" + hit.ID + "/report")
	cacheRead := fetch(ts1.URL + "/v1/cache/" + cold.CacheKey)
	if enc, dec := codecCounts(s1); enc != 1 || dec != 0 {
		t.Fatalf("memory-hit, report and cache reads moved the codec counters to %d encodes, %d decodes", enc, dec)
	}
	var a, b, c report.Report
	for body, into := range map[string]*report.Report{first: &a, memRead: &b, cacheRead: &c} {
		if err := json.Unmarshal([]byte(body), into); err != nil {
			t.Fatal(err)
		}
	}
	if a.Title != "computed" || b.Title != `memory "hit"` || c.Title != "" || auditsJSON(t, &a) != auditsJSON(t, &b) || auditsJSON(t, &a) != auditsJSON(t, &c) {
		t.Fatalf("the three reads disagree beyond their titles: %q %q %q", a.Title, b.Title, c.Title)
	}
	ts1.Close()
	gracefulShutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted daemon: the first submit is a disk hit, and reading it
	// back slices the stored record — still no codec.
	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer gracefulShutdown(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	req.Title = "disk hit"
	disk := mustSubmit(t, s2, req)
	if !disk.DiskHit {
		t.Fatalf("post-restart submit = %+v, want a disk hit", disk)
	}
	diskRead := fetch(ts2.URL + "/v1/audits/" + disk.ID + "/report")
	if enc, dec := codecCounts(s2); enc != 0 || dec != 0 {
		t.Fatalf("a disk-hit submit and read ran %d encodes, %d decodes", enc, dec)
	}
	if want := strings.Replace(first, `"title":"computed"`, `"title":"disk hit"`, 1); diskRead != want {
		t.Fatalf("the disk-hit read is not the original bytes under the new title:\n got %s\nwant %s", diskRead, want)
	}
}

// TestWatchRefreshRunsOneEncodeNoDecode: a watched multi-deployment request
// holds its deployment audits and its newest report as structs in the audits
// memo, so every report — the initial one and each refresh's splice — costs
// exactly one encode (its computation's) and no decode, and a resubmission
// after an unrelated ingest is a plain hit that costs neither.
func TestWatchRefreshRunsOneEncodeNoDecode(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	mustIngest(t, s, deltaRecords())
	sub, err := s.Watch(deltaAuditRequest("live"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ev := nextWatchEvent(t, sub); ev.Report == nil || ev.Report.Title != "live" {
		t.Fatalf("initial event = %+v", ev)
	}
	if enc, dec := codecCounts(s); enc != 1 || dec != 0 {
		t.Fatalf("initial report: %d encodes, %d decodes, want 1 and 0", enc, dec)
	}
	flap := func(i int) {
		subject := []string{"s3", "s1"}[i%2] // alternate the dirty deployment
		mustIngest(t, s, []RecordWire{{Kind: "software", Pgm: fmt.Sprintf("daemon-%d", i), HW: subject, Deps: []string{"libc6"}}})
	}
	for i := 0; i <= 6; i++ {
		encBefore, decBefore := codecCounts(s)
		if i == 4 {
			// A change that misses every watched server keeps the address: the
			// resubmission is a memory hit, and its in-process read takes the
			// held struct — nothing is encoded or decoded.
			mustIngest(t, s, []RecordWire{{Kind: "hardware", HW: "spare", Type: "NIC", Dep: "spare-nic"}})
			st := mustSubmit(t, s, deltaAuditRequest("unrelated"))
			if !st.Cached || st.DeltaHit || st.State != StateDone {
				t.Fatalf("resubmission after an unrelated ingest = %+v, want a plain hit", st)
			}
			if rep, err := s.Report(st.ID); err != nil || rep.Title != "unrelated" {
				t.Fatalf("resubmission's report: %v", err)
			}
			if enc, dec := codecCounts(s); enc != encBefore || dec != decBefore {
				t.Fatalf("a plain hit and its in-process read ran %d encodes, %d decodes", enc-encBefore, dec-decBefore)
			}
		}
		flap(i)
		ev := nextWatchEvent(t, sub)
		if ev.Error != "" || ev.Report == nil || ev.Report.Title != "live" || !ev.Job.DeltaHit || len(ev.Job.DirtySubjects) != 2 {
			t.Fatalf("refresh %d = %+v", i+1, ev)
		}
		if enc, dec := codecCounts(s); enc != encBefore+1 || dec != decBefore {
			t.Fatalf("refresh %d ran %d encodes and %d decodes, want exactly one encode", i+1, enc-encBefore, dec-decBefore)
		}
	}
	// One group per report the watch computed — the initial audit and seven
	// splices; the plain hit added none. Each older group pins only its
	// assembled report and the deployment audit its refresh re-audited.
	if held := s.audits.Len(); held != 1+7 {
		t.Fatalf("the audits memo holds %d groups, want 8", held)
	}
	// The streamed splice is still what a full recompute produces.
	last := mustSubmit(t, s, deltaAuditRequest("check"))
	got, err := s.Report(last.ID)
	if err != nil {
		t.Fatal(err)
	}
	inline := deltaAuditRequest("full")
	snap, err := s.resolveDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	inline.Records = WireRecords(snap.Records())
	full, err := s.Report(waitDone(t, s, mustSubmit(t, s, inline).ID).ID)
	if err != nil {
		t.Fatal(err)
	}
	if auditsJSON(t, got) != auditsJSON(t, full) {
		t.Fatal("after a run of held-audit splices the report diverges from a full recompute")
	}
}
