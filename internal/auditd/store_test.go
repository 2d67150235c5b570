package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func gracefulShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRestartServesResultFromDisk is the durability contract for results: a
// report computed before a restart is served from disk afterwards — same
// bytes, no recomputation — and the job says so.
func TestRestartServesResultFromDisk(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	first := mustSubmit(t, s1, quickRequest("durable"))
	if done := waitDone(t, s1, first.ID); done.State != StateDone {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}
	rep1, err := s1.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	gracefulShutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store handle over the same directory, fresh server.
	st2 := openStore(t, dir)
	if rec := st2.Recovery(); rec.Entries != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer gracefulShutdown(t, s2)
	again := mustSubmit(t, s2, quickRequest("durable"))
	if again.State != StateDone || !again.Cached || !again.DiskHit {
		t.Fatalf("post-restart submit = %+v, want an instant disk hit", again)
	}
	if again.CacheKey != first.CacheKey {
		t.Fatalf("cache key drifted across restart: %s != %s", again.CacheKey, first.CacheKey)
	}
	rep2, err := s2.Report(again.ID)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Fatalf("disk-served report differs:\n pre: %s\npost: %s", b1, b2)
	}
	stats := s2.Stats()
	if stats.StoreHits != 1 || stats.Computations != 0 {
		t.Fatalf("want 1 store hit and 0 computations, got %+v", stats)
	}
	if !stats.StoreEnabled || stats.Store.Entries == 0 {
		t.Fatalf("store stats not exported: %+v", stats)
	}
	// A third submission now hits the promoted in-memory copy, not disk.
	third := mustSubmit(t, s2, quickRequest("durable"))
	if !third.Cached || third.DiskHit {
		t.Fatalf("third submit = %+v, want a memory hit", third)
	}
}

// TestRestartServesIngestedFingerprint is the durability contract for
// ingests: records pushed through Ingest survive a restart with the same
// canonical fingerprint, so record-less jobs resolve to the same content
// addresses and are served from disk.
func TestRestartServesIngestedFingerprint(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	ing, err := s1.Ingest(&IngestRequest{Records: testRecords()})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Fingerprint == "" {
		t.Fatal("ingest returned no fingerprint")
	}
	rreq := &RecommendRequest{Replicas: 2} // record-less: uses the server DB
	rst, err := s1.Recommend(rreq)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, rst.ID)
	res1, err := s1.Result(rst.ID)
	if err != nil {
		t.Fatal(err)
	}
	gracefulShutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	db, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if db == nil {
		t.Fatal("RestoreDB found no persisted snapshot")
	}
	if got := db.Fingerprint(); got != ing.Fingerprint {
		t.Fatalf("restored fingerprint %s, want %s", got, ing.Fingerprint)
	}
	s2 := New(Config{Workers: 1, DB: db, Store: st2})
	defer gracefulShutdown(t, s2)
	rst2, err := s2.Recommend(&RecommendRequest{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rst2.CacheKey != rst.CacheKey {
		t.Fatalf("record-less recommend key drifted: %s != %s", rst2.CacheKey, rst.CacheKey)
	}
	if rst2.State != StateDone || !rst2.DiskHit {
		t.Fatalf("post-restart recommend = %+v, want a disk hit", rst2)
	}
	res2, err := s2.Result(rst2.ID)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := res1.(*RecommendResponse), res2.(*RecommendResponse)
	if len(r1.Rankings) == 0 || len(r1.Rankings) != len(r2.Rankings) {
		t.Fatalf("rankings differ: %d vs %d", len(r1.Rankings), len(r2.Rankings))
	}
	if strings.Join(r1.Rankings[0].Nodes, ",") != strings.Join(r2.Rankings[0].Nodes, ",") {
		t.Fatalf("top-1 differs: %v vs %v", r1.Rankings[0].Nodes, r2.Rankings[0].Nodes)
	}

	// A further ingest appends exactly one chain segment — O(batch) bytes —
	// alongside the base segment and the current pointer.
	ing2, err := s2.Ingest(&IngestRequest{Records: []RecordWire{
		{Kind: "hardware", HW: "s3", Type: "Disk", Dep: "S3-SED900"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ing2.Fingerprint == ing.Fingerprint {
		t.Fatal("ingest did not change the fingerprint")
	}
	if snapshots, metas := countSnapshotEntries(st2); snapshots != 2 || metas != 1 {
		t.Fatalf("want base + 1 batch segment + 1 meta after second ingest, got %d + %d", snapshots, metas)
	}
	gracefulShutdown(t, s2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// A further restart replays the two-segment chain to the same
	// fingerprint and consolidates it back to a single segment.
	st3 := openStore(t, dir)
	db3, err := RestoreDB(st3)
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Fingerprint(); got != ing2.Fingerprint {
		t.Fatalf("chain replayed to %s, want %s", got, ing2.Fingerprint)
	}
	if snapshots, metas := countSnapshotEntries(st3); snapshots != 1 || metas != 1 {
		t.Fatalf("want a consolidated single-segment chain, got %d + %d", snapshots, metas)
	}
}

// TestRestoreLegacyStoreMigrates: stores written before the snapshot chain
// held one whole-database snapshot under depdb/<fp> with a raw-string
// current pointer (and an older fingerprint algorithm). RestoreDB must load
// it, re-address it under a fresh single-segment chain, and drop the legacy
// keys.
func TestRestoreLegacyStoreMigrates(t *testing.T) {
	st := openStore(t, t.TempDir())

	// Fabricate the legacy layout by hand.
	legacy := depdb.New()
	for _, w := range testRecords() {
		r, err := w.Record()
		if err != nil {
			t.Fatal(err)
		}
		if err := legacy.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := deps.EncodeXML(&buf, legacy.Records()); err != nil {
		t.Fatal(err)
	}
	const oldFP = "0123456789abcdef-old-algorithm-fingerprint"
	if _, err := st.Put("depdb/"+oldFP, store.KindSnapshot, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("depdb/current", store.KindMeta, []byte(oldFP)); err != nil {
		t.Fatal(err)
	}

	db, err := RestoreDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if db == nil || db.Len() != legacy.Len() {
		t.Fatalf("migrated database = %v", db)
	}
	if db.Fingerprint() != legacy.Fingerprint() {
		t.Fatal("migrated fingerprint must match a fresh load of the same records")
	}
	meta := readSnapMeta(st)
	if meta.Segments != 1 || meta.Fingerprint != db.Fingerprint() {
		t.Fatalf("migrated chain meta = %+v", meta)
	}
	if _, _, ok, _ := st.Get("depdb/" + oldFP); ok {
		t.Fatal("legacy snapshot entry survived migration")
	}
	// The migrated chain restores like a native one.
	db2, err := RestoreDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Fingerprint() != db.Fingerprint() {
		t.Fatal("second restore diverged")
	}
}

// TestDurableIngestSurvivesRestart: every record an ingest acknowledges as
// durable restores, whatever its names hold — a comma inside a list item,
// surrounding spaces, a newline, a control character, markup, non-ASCII
// text, a program with no deps. The chain replays to the acknowledged
// fingerprint and the records it was acknowledged over, both from the
// multi-segment chain the ingests wrote and from the one segment the first
// boot consolidates it into.
func TestDurableIngestSurvivesRestart(t *testing.T) {
	records := []deps.Record{
		deps.NewSoftware("p", "h", "a,b"),
		deps.NewNetwork("s1", "Internet", " tor1", "core 1 "),
		deps.NewHardware("s1", "NIC", "x\x01y"),
		deps.NewHardware("s1", "Disk", "line\nbreak"),
		deps.NewSoftware(`<&"'>`, "s1", "libc6=2.31"),
		deps.NewHardware("s2", "CPU", "Xéon ✓"),
		deps.NewSoftware("bare", "s2"),
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	var ack IngestResponse
	for _, r := range records {
		if ack = mustIngest(t, s, WireRecords([]deps.Record{r})); !ack.Durable {
			t.Fatalf("ingest of %v not durable: %+v", r, ack)
		}
	}
	want := s.db.Records()
	gracefulShutdown(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ {
		st := openStore(t, dir)
		db, err := RestoreDB(st)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		if db.Fingerprint() != ack.Fingerprint || !reflect.DeepEqual(db.Records(), want) {
			t.Fatalf("boot %d restored %s\n got %v\nwant %v (%s)", boot, db.Fingerprint(), db.Records(), want, ack.Fingerprint)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreXMLChainMigrates boots the data directory of a daemon that
// stored its chain as Table 1 XML: testdata/xmlchain is that daemon's store
// after three ingests — the second replaces s2's disk and re-observes a
// route, the third adds a route and re-observes a program. RestoreDB must
// replay it to the fingerprint the daemon acknowledged last, leave one
// segment in depdb's line form, and a second boot must read no XML.
func TestRestoreXMLChainMigrates(t *testing.T) {
	var want struct {
		Fingerprint string `json:"fingerprint"`
		Segments    int    `json:"segments"`
		Total       int    `json:"total"`
	}
	blob, err := os.ReadFile("testdata/xmlchain/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile("testdata/xmlchain/store.log")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	if snapshots, _ := countSnapshotEntries(st); snapshots != want.Segments || want.Segments < 2 {
		t.Fatalf("the fixture holds %d segments, its record says %d", snapshots, want.Segments)
	}
	if meta := readSnapMeta(st); meta.Segments != 0 {
		t.Fatalf("an XML chain read as appendable: %+v", meta)
	}
	db, err := RestoreDB(st)
	if err != nil {
		t.Fatalf("an XML data directory failed boot: %v", err)
	}
	if db.Fingerprint() != want.Fingerprint || db.Len() != want.Total {
		t.Fatalf("restored %s with %d records, want %s with %d", db.Fingerprint(), db.Len(), want.Fingerprint, want.Total)
	}
	meta := readSnapMeta(st)
	if meta.Format != lineSegments || meta.Segments != 1 || meta.Fingerprint != want.Fingerprint {
		t.Fatalf("rewritten chain meta = %+v", meta)
	}
	if snapshots, _ := countSnapshotEntries(st); snapshots != 1 {
		t.Fatalf("the rewritten chain holds %d segments, want 1", snapshots)
	}
	seg, _, _, err := st.Get(segmentKey(meta.Gen, 0))
	if err != nil || !bytes.Equal(seg, db.Segment()) {
		t.Fatalf("the rewritten segment is not the live records' line form (%v)", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The second boot replays the line form as it is: nothing is rewritten.
	st2 := openStore(t, dir)
	db2, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Fingerprint() != want.Fingerprint || !reflect.DeepEqual(db2.Records(), db.Records()) {
		t.Fatalf("second boot restored %s, want %s", db2.Fingerprint(), want.Fingerprint)
	}
	if again := readSnapMeta(st2); again != meta {
		t.Fatalf("the second boot rewrote the chain: %+v, was %+v", again, meta)
	}
}

// TestRestoreV2StoreRekeys boots the data directory of a daemon that ran
// the multiset (v2) fingerprint: testdata/v2store is that daemon's store
// after two ingests — the second replaces a disk, flaps it back and
// re-observes a route — and one record-less audit, stored under its v2
// address. The chain's recorded fingerprint commits to twelve observations
// the reduced state has eight records for; RestoreDB must not refuse to boot
// over that, must serve the v3 fingerprint of the current state, must
// rewrite the chain under it, and the daemon must never answer a submit from
// the result the v2 address still names.
func TestRestoreV2StoreRekeys(t *testing.T) {
	var v2 struct {
		Fingerprint string `json:"fingerprint"`
		Total       int    `json:"total"`
		CacheKey    string `json:"cache_key"`
	}
	blob, err := os.ReadFile("testdata/v2store/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &v2); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile("testdata/v2store/store.log")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	if meta := readSnapMeta(st); meta.Segments != 0 {
		t.Fatalf("a v2 chain read as appendable: %+v", meta)
	}
	if _, _, ok, _ := st.Get(v2.CacheKey); !ok {
		t.Fatal("the fixture no longer holds the result stored under the v2 address")
	}
	db, err := RestoreDB(st)
	if err != nil {
		t.Fatalf("a v2 data directory failed boot: %v", err)
	}
	// The current state: the first ingest's records with s2's disk replaced.
	want := depdb.New()
	for _, w := range testRecords() {
		r, err := w.Record()
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.Put(deps.NewHardware("s2", "Disk", "S2-NVME")); err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != want.Fingerprint() || db.Fingerprint() == v2.Fingerprint {
		t.Fatalf("restored fingerprint %s, want the v3 fingerprint %s (v2 was %s)", db.Fingerprint(), want.Fingerprint(), v2.Fingerprint)
	}
	if db.Len() != 8 || v2.Total != 12 {
		t.Fatalf("restored %d live records from %d observations, want 8 from 12", db.Len(), v2.Total)
	}
	meta := readSnapMeta(st)
	if meta.FPVersion != depdb.FingerprintVersion || meta.Fingerprint != db.Fingerprint() || meta.Segments != 1 {
		t.Fatalf("re-keyed chain meta = %+v", meta)
	}
	if snapshots, _ := countSnapshotEntries(st); snapshots != 1 {
		t.Fatalf("re-keyed chain holds %d segments, want 1", snapshots)
	}

	s := New(Config{Workers: 1, DB: db, Store: st})
	job := mustSubmit(t, s, &SubmitRequest{Title: "v3", Deployments: quickRequest("").Deployments})
	if job.CacheKey == v2.CacheKey || job.Cached || job.DiskHit {
		t.Fatalf("submit after the re-key = %+v, answered from the v2 address %s", job, v2.CacheKey)
	}
	if end := waitDone(t, s, job.ID); end.State != StateDone {
		t.Fatalf("audit after the re-key: %+v", end)
	}
	if st := s.Stats(); st.Computations != 1 || st.StoreHits != 0 {
		t.Fatalf("computations %d, disk hits %d, want the audit computed", st.Computations, st.StoreHits)
	}
	gracefulShutdown(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The re-keyed directory is a native one: it restores verified, and the
	// audit computed above is a disk hit under its v3 address.
	st2 := openStore(t, dir)
	db2, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Fingerprint() != db.Fingerprint() {
		t.Fatalf("second restore: %s, want %s", db2.Fingerprint(), db.Fingerprint())
	}
	s2 := New(Config{Workers: 1, DB: db2, Store: st2})
	defer gracefulShutdown(t, s2)
	again := mustSubmit(t, s2, &SubmitRequest{Title: "v3", Deployments: quickRequest("").Deployments})
	if again.CacheKey != job.CacheKey || !again.DiskHit {
		t.Fatalf("resubmit after a second restart = %+v, want a disk hit under %s", again, job.CacheKey)
	}
}

// TestCompactionLaysFreshBase: a durable daemon under churn does not grow its
// snapshot chain with its uptime. When the database compacts its log, the
// next ingest replaces the chain with one base segment of the live records,
// so the chain a restart replays stays within a small multiple of the
// state's size however many observations went by — and replays to the
// fingerprint the daemon last acknowledged.
func TestCompactionLaysFreshBase(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	mustIngest(t, s, testRecords()) // 8 live records
	var last IngestResponse
	longest, bases := 0, 0
	for i := 0; i < 200; i++ {
		gen := s.snapMeta.Gen
		last = mustIngest(t, s, WireRecords([]deps.Record{
			deps.NewHardware("s1", "Disk", fmt.Sprintf("S1-disk-%d", i)),
		}))
		if s.snapMeta.Gen != gen {
			bases++
			if s.snapMeta.Segments != 1 {
				t.Fatalf("flap %d: a fresh generation holds %d segments", i, s.snapMeta.Segments)
			}
		}
		longest = max(longest, s.snapMeta.Segments)
	}
	if last.Total != 8 || !last.Durable {
		t.Fatalf("after 200 flaps: %+v", last)
	}
	// Compaction runs once superseded entries outnumber the 8 live records;
	// the base is written by the ingest after.
	if longest > 12 || bases < 15 {
		t.Fatalf("the chain reached %d segments and was re-based %d times over 200 flaps of an 8-record database", longest, bases)
	}
	gracefulShutdown(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	db, err := RestoreDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != last.Fingerprint || db.Len() != 8 {
		t.Fatalf("restart replayed to %s with %d records, want %s with 8", db.Fingerprint(), db.Len(), last.Fingerprint)
	}
}

// copyDataDir copies the store file of src into a fresh directory: what a
// kill -9 leaves on disk, since every acknowledged write was fsynced and
// nothing is flushed or closed after it. keep, when non-negative, cuts the
// copy to its first keep bytes.
func copyDataDir(t *testing.T, src string, keep int64) string {
	t.Helper()
	log, err := os.ReadFile(filepath.Join(src, "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	if keep >= 0 {
		log = log[:keep]
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// flapDisk returns a one-record ingest that changes s1's disk.
func flapDisk(i int) []RecordWire {
	return WireRecords([]deps.Record{deps.NewHardware("s1", "Disk", fmt.Sprintf("S1-disk-%d", i))})
}

// TestTailReplaysWithoutClose: an ingest commit after a generation's base
// is one store append — the segment, no pointer — and a daemon killed
// without closing its store boots to the fingerprint it acknowledged last,
// replaying the tail the pointer never named.
func TestTailReplaysWithoutClose(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	defer gracefulShutdown(t, s)
	base := mustIngest(t, s, testRecords())
	puts := st.Stats().Puts
	var last IngestResponse
	for i := 0; i < 5; i++ {
		if last = mustIngest(t, s, flapDisk(i)); !last.Durable {
			t.Fatalf("flap %d not durable: %+v", i, last)
		}
	}
	if got := st.Stats().Puts - puts; got != 5 {
		t.Fatalf("5 ingest commits wrote %d store records, want 5", got)
	}
	pointer, keys, err := loadChain(st, depdb.New())
	if err != nil || pointer.Segments != 1 || pointer.Fingerprint != base.Fingerprint || len(keys) != 6 {
		t.Fatalf("chain = %+v with %d segments (%v), want the base's pointer and a 5-segment tail", pointer, len(keys), err)
	}
	want := s.db.Records()

	killed := openStore(t, copyDataDir(t, dir, -1))
	db, err := RestoreDB(killed)
	if err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != last.Fingerprint || !reflect.DeepEqual(db.Records(), want) {
		t.Fatalf("restored %s, want the last acknowledged %s", db.Fingerprint(), last.Fingerprint)
	}
	if meta := readSnapMeta(killed); meta.Segments != 1 || meta.Fingerprint != last.Fingerprint {
		t.Fatalf("the boot left chain %+v, want one consolidated segment", meta)
	}
}

// TestTornTailBootsToPreviousAck: a crash mid-append can tear only the
// newest segment, since each commit's fsync finishes before the next commit
// writes. Store recovery drops the torn record, and the chain replays to the
// ingest acknowledged before it.
func TestTornTailBootsToPreviousAck(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	defer gracefulShutdown(t, s)
	mustIngest(t, s, testRecords())
	mustIngest(t, s, flapDisk(0))
	prev := mustIngest(t, s, flapDisk(1))
	before := st.Stats().FileBytes
	if torn := mustIngest(t, s, flapDisk(2)); torn.Fingerprint == prev.Fingerprint {
		t.Fatal("the last flap did not change the state")
	}
	after := st.Stats().FileBytes

	keep := (before + after) / 2
	crashed := openStore(t, copyDataDir(t, dir, keep))
	if rec := crashed.Recovery(); rec.TruncatedBytes != keep-before {
		t.Fatalf("recovery = %+v, want the %d bytes of the torn segment dropped", rec, keep-before)
	}
	db, err := RestoreDB(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != prev.Fingerprint {
		t.Fatalf("restored %s, want the previous acknowledged %s", db.Fingerprint(), prev.Fingerprint)
	}
}

// TestRestoreLineChainBootsUnchanged boots the data directory of a daemon
// whose pointer named every segment: testdata/linechain is that daemon's
// store after four ingests — the second replaces s2's disk and re-observes
// a route, the third adds a route and re-observes a program, the fourth
// adds a program — and one record-less audit. The chain must replay to the
// fingerprint the daemon acknowledged last, be rewritten once as one
// segment in today's format, and the audit must be a disk hit under the
// same address.
func TestRestoreLineChainBootsUnchanged(t *testing.T) {
	want := readLineChainExpect(t)
	dir := copyDataDir(t, "testdata/linechain", -1)
	st := openStore(t, dir)
	if snapshots, _ := countSnapshotEntries(st); snapshots != want.Segments || want.Segments < 2 {
		t.Fatalf("the fixture holds %d segments, its record says %d", snapshots, want.Segments)
	}
	if meta := readSnapMeta(st); meta.Segments != 0 {
		t.Fatalf("a chain without a tail read as appendable: %+v", meta)
	}
	db, err := RestoreDB(st)
	if err != nil {
		t.Fatalf("the data directory failed boot: %v", err)
	}
	if db.Fingerprint() != want.Fingerprint || db.Len() != want.Total {
		t.Fatalf("restored %s with %d records, want %s with %d", db.Fingerprint(), db.Len(), want.Fingerprint, want.Total)
	}
	meta := readSnapMeta(st)
	if meta.Format != lineSegments || meta.Segments != 1 || meta.Fingerprint != want.Fingerprint {
		t.Fatalf("rewritten chain meta = %+v", meta)
	}
	if snapshots, _ := countSnapshotEntries(st); snapshots != 1 {
		t.Fatalf("the rewritten chain holds %d segments, want 1", snapshots)
	}
	s := New(Config{Workers: 1, DB: db, Store: st})
	defer gracefulShutdown(t, s)
	job := mustSubmit(t, s, &SubmitRequest{Title: "lines", Deployments: quickRequest("").Deployments})
	if job.CacheKey != want.CacheKey || !job.DiskHit || s.Stats().Computations != 0 {
		t.Fatalf("submit after the boot = %+v, want a disk hit under %s", job, want.CacheKey)
	}
	// The next ingest extends the rewritten chain by one segment.
	if ack := mustIngest(t, s, flapDisk(0)); !ack.Durable || s.snapMeta.Segments != 2 || s.snapMeta.Gen != meta.Gen {
		t.Fatalf("ingest after the boot = %+v, chain %+v", ack, s.snapMeta)
	}
}

// lineChainExpect is testdata/linechain/expect.json: what the daemon that
// wrote the fixture acknowledged last.
type lineChainExpect struct {
	CacheKey    string `json:"cache_key"`
	Fingerprint string `json:"fingerprint"`
	Segments    int    `json:"segments"`
	Total       int    `json:"total"`
}

func readLineChainExpect(t *testing.T) lineChainExpect {
	t.Helper()
	var want lineChainExpect
	blob, err := os.ReadFile("testdata/linechain/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRestoreLineChainSkipsOrphan: a chain whose pointer named every
// segment has no tail. A segment past the pointer's count — one whose write
// was refused before a crash — is not replayed, and the boot sweeps it.
func TestRestoreLineChainSkipsOrphan(t *testing.T) {
	want := readLineChainExpect(t)
	st := openStore(t, copyDataDir(t, "testdata/linechain", -1))
	pointer, _, err := readPointer(st)
	if err != nil || pointer.Format != namedLineSegments {
		t.Fatalf("fixture pointer = %+v (%v), want format %q", pointer, err, namedLineSegments)
	}
	refused := depdb.New()
	if err := refused.Put(deps.NewHardware("s1", "Disk", "refused")); err != nil {
		t.Fatal(err)
	}
	orphan := segmentKey(pointer.Gen, pointer.Segments)
	if _, err := st.Put(orphan, store.KindSnapshot, refused.Segment()); err != nil {
		t.Fatal(err)
	}
	db, err := RestoreDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != want.Fingerprint {
		t.Fatalf("restored %s, want %s: the refused segment was replayed", db.Fingerprint(), want.Fingerprint)
	}
	if _, _, ok, _ := st.Get(orphan); ok {
		t.Fatalf("the boot left the orphaned segment %s", orphan)
	}
}

// TestTailHoleFailsBoot: store recovery quarantines a corrupt record in the
// middle of its log and keeps the records after it, so a bit flip in a tail
// segment leaves a gap in <gen>/<i>. The boot must fail on the gap, as on a
// missing named segment, and change nothing — not replay up to the gap,
// consolidate, and sweep the acknowledged segments after it.
func TestTailHoleFailsBoot(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	defer gracefulShutdown(t, s)
	mustIngest(t, s, testRecords())
	for i := 0; i < 4; i++ {
		mustIngest(t, s, flapDisk(i))
	}
	gen := s.snapMeta.Gen
	if s.snapMeta.Segments != 5 {
		t.Fatalf("chain = %+v, want a base and a 4-segment tail", s.snapMeta)
	}

	log, err := os.ReadFile(filepath.Join(dir, "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	hole := segmentKey(gen, 2)
	at := bytes.Index(log, []byte(hole))
	if at < 0 || bytes.Contains(log[at+1:], []byte(hole)) {
		t.Fatalf("store.log holds %s %d times, want once", hole, bytes.Count(log, []byte(hole)))
	}
	log[at+len(hole)] ^= 1 // the first byte of the segment's value
	flipped := t.TempDir()
	if err := os.WriteFile(filepath.Join(flipped, "store.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	crashed := openStore(t, flipped)
	if rec := crashed.Recovery(); rec.QuarantinedRanges != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want the flipped record quarantined", rec)
	}
	before := crashed.Entries()
	if _, err := RestoreDB(crashed); err == nil || !strings.Contains(err.Error(), hole) {
		t.Fatalf("RestoreDB = %v, want an error naming the missing %s", err, hole)
	}
	if after := crashed.Entries(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the failed boot changed the store: %d entries before, %d after", len(before), len(after))
	}
	for i := 3; i <= 4; i++ {
		if _, _, ok, err := crashed.Get(segmentKey(gen, i)); !ok || err != nil {
			t.Fatalf("segment %s after the gap is gone (%v)", segmentKey(gen, i), err)
		}
	}
}

func countSnapshotEntries(st *store.Store) (snapshots, metas int) {
	for _, e := range st.Entries() {
		switch e.Kind {
		case store.KindSnapshot:
			snapshots++
		case store.KindMeta:
			metas++
		}
	}
	return snapshots, metas
}

// TestStoreEvictionMirroredIntoMemory pins the two-tier invariant: when the
// disk store evicts a result to stay within budget, the in-memory LRU drops
// it too, so the memory tier never serves an entry the durable tier gave up
// on.
func TestStoreEvictionMirroredIntoMemory(t *testing.T) {
	// Phase 1: measure the on-disk size of one persisted benchmark result.
	probeDir := t.TempDir()
	stp := openStore(t, probeDir)
	sp := New(Config{Workers: 1, Store: stp})
	p := mustSubmit(t, sp, quickRequest("probe"))
	waitDone(t, sp, p.ID)
	recBytes := stp.Stats().ResultBytes
	if recBytes == 0 {
		t.Fatal("probe result not persisted")
	}
	gracefulShutdown(t, sp)

	// Phase 2: budget holds one result but not two.
	st, err := store.Open(store.Options{Dir: t.TempDir(), MaxBytes: recBytes + recBytes/2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(Config{Workers: 1, Store: st})
	defer gracefulShutdown(t, s)

	reqA := quickRequest("A")
	reqB := quickRequest("B")
	reqB.Deployments = []DeploymentWire{{Name: "s1 only", Servers: []string{"s1"}}}

	a := mustSubmit(t, s, reqA)
	waitDone(t, s, a.ID)
	b := mustSubmit(t, s, reqB)
	waitDone(t, s, b.ID)

	stats := s.Stats()
	if stats.Store.Evictions == 0 || stats.StoreEvictions == 0 {
		t.Fatalf("persisting B should have evicted A from disk and memory: %+v", stats)
	}
	// A was evicted from both tiers: resubmitting recomputes.
	a2 := mustSubmit(t, s, reqA)
	if a2.Cached || a2.DiskHit {
		t.Fatalf("A should have been evicted everywhere, got %+v", a2)
	}
	waitDone(t, s, a2.ID)
	// B stayed in memory.
	b2 := mustSubmit(t, s, reqB)
	if !b2.Cached {
		t.Fatalf("B should still be served from memory, got %+v", b2)
	}
}

// TestResultCodec pins the disk envelope: every payload kind round-trips
// through it, titles stay off the stored bytes, and garbage fails loudly
// instead of producing a zero-valued result.
func TestResultCodec(t *testing.T) {
	for _, bad := range []any{42, nil, math.Inf(1), []int{1}} {
		if _, err := encodeResult(auditKind, bad); err == nil {
			t.Errorf("encodeResult accepted %v, which is not a result object", bad)
		}
	}
	for _, blob := range []string{"", "{", `{"kind":"mystery","payload":{}}`, `{"kind":"audit","payload":}`, `{"kind":"audit","payload":{"title":"open}}`} {
		if _, err := parseEnvelope([]byte(blob)); err == nil {
			t.Errorf("parseEnvelope accepted %q", blob)
		}
	}

	for _, kind := range jobKinds {
		res := fixtureFor(t, kind).sample("codec")
		enc, err := encodeResult(kind, res)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(enc.obj, []byte("codec")) {
			t.Errorf("%s: the stored bytes carry the title: %s", kind.name, enc.obj)
		}
		stored, err := parseEnvelope(enc.envelope())
		if err != nil {
			t.Fatal(err)
		}
		if stored.kind != kind || !bytes.Equal(stored.obj, enc.obj) {
			t.Errorf("%s: envelope round-trip = %s %s", kind.name, stored.kind.name, stored.obj)
		}
		// Compared as JSON: the report sample carries NaNs, which no two
		// structs are DeepEqual over.
		back, err := stored.Decode("codec")
		if err != nil || reflect.TypeOf(back) != reflect.TypeOf(res) || !bytes.Equal(mustJSON(t, back), mustJSON(t, res)) {
			t.Errorf("%s round-trip = %#v, %v", kind.name, back, err)
		}
	}
}

// TestMetricsExposeStoreCounters asserts the /metrics additions render only
// when a store is configured.
func TestMetricsExposeStoreCounters(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Workers: 1, Store: st})
	defer gracefulShutdown(t, s)
	j := mustSubmit(t, s, quickRequest("metrics"))
	waitDone(t, s, j.ID)
	// Two puts per computed job — the crash journal and the result — and the
	// journal's tombstone lands shortly after the job settles.
	for i := 0; i < 200 && st.Stats().Entries != 1; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	var sb strings.Builder
	writeMetrics(&sb, s.Stats().rows())
	text := sb.String()
	for _, want := range []string{
		"auditd_store_hits_total 0",
		"auditd_store_puts_total 2",
		"auditd_store_entries 1",
		"auditd_store_recovered_entries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	plain := New(Config{Workers: 1})
	defer gracefulShutdown(t, plain)
	sb.Reset()
	writeMetrics(&sb, plain.Stats().rows())
	if strings.Contains(sb.String(), "auditd_store_") {
		t.Error("memory-only service rendered store metrics")
	}
}
