package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic, strictly increasing time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Now == nil {
		opts.Now = newFakeClock().now
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, kind Kind, val string) []string {
	t.Helper()
	evicted, err := s.Put(key, kind, []byte(val))
	if err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
	return evicted
}

func mustGet(t *testing.T, s *Store, key string) (string, Kind) {
	t.Helper()
	val, kind, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	if !ok {
		t.Fatalf("get %q: missing", key)
	}
	return string(val), kind
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	mustPut(t, s, "a", KindResult, "alpha")
	mustPut(t, s, "b", KindSnapshot, "beta")
	mustPut(t, s, "c", KindMeta, "gamma")
	mustPut(t, s, "a", KindResult, "alpha-2") // overwrite

	if v, k := mustGet(t, s, "a"); v != "alpha-2" || k != KindResult {
		t.Fatalf("a = %q/%v", v, k)
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatalf("deleting an absent key: %v", err)
	}
	if _, _, ok, _ := s.Get("b"); ok {
		t.Fatal("b survived delete")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt from the log with last-write-wins.
	s2 := openTest(t, Options{Dir: dir})
	rec := s2.Recovery()
	if rec.Entries != 2 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if rec.RecordsScanned != 5 { // 4 puts + 1 tombstone
		t.Fatalf("records scanned = %d", rec.RecordsScanned)
	}
	if v, _ := mustGet(t, s2, "a"); v != "alpha-2" {
		t.Fatalf("a after reopen = %q", v)
	}
	if v, k := mustGet(t, s2, "c"); v != "gamma" || k != KindMeta {
		t.Fatalf("c after reopen = %q/%v", v, k)
	}
	if _, _, ok, _ := s2.Get("b"); ok {
		t.Fatal("b resurrected by reopen")
	}
}

func TestEntriesListing(t *testing.T) {
	s := openTest(t, Options{})
	mustPut(t, s, "first", KindResult, "1")
	mustPut(t, s, "second", KindSnapshot, strings.Repeat("x", 100))
	entries := s.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Key != "first" || entries[1].Key != "second" {
		t.Fatalf("order = %+v", entries)
	}
	if entries[1].Size != 100 || entries[1].Kind != KindSnapshot {
		t.Fatalf("second = %+v", entries[1])
	}
	if !entries[0].Time.Before(entries[1].Time) {
		t.Fatalf("times not increasing: %+v", entries)
	}
}

func TestSizeEvictionOldestResultsFirst(t *testing.T) {
	clock := newFakeClock()
	val := strings.Repeat("v", 100)
	// Each record is headerSize + len(key) + 100 ≈ 122 bytes; budget three.
	s := openTest(t, Options{Dir: t.TempDir(), MaxBytes: 380, Now: clock.now})
	mustPut(t, s, "snap", KindSnapshot, strings.Repeat("s", 4000)) // never evicted
	var evicted []string
	for i := 0; i < 6; i++ {
		evicted = append(evicted, mustPut(t, s, fmt.Sprintf("r%d", i), KindResult, val)...)
	}
	if len(evicted) != 3 || evicted[0] != "r0" || evicted[1] != "r1" || evicted[2] != "r2" {
		t.Fatalf("evicted = %v", evicted)
	}
	for _, key := range []string{"r3", "r4", "r5", "snap"} {
		mustGet(t, s, key)
	}
	if st := s.Stats(); st.Evictions != 3 || st.ResultBytes > 380 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAgeEviction(t *testing.T) {
	clock := newFakeClock()
	s := openTest(t, Options{Dir: t.TempDir(), MaxBytes: -1, MaxAge: time.Hour, Now: clock.now})
	mustPut(t, s, "old", KindResult, "1")
	mustPut(t, s, "snap", KindSnapshot, "s")
	clock.advance(2 * time.Hour)
	evicted, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "old" {
		t.Fatalf("evicted = %v", evicted)
	}
	if _, _, ok, _ := s.Get("old"); ok {
		t.Fatal("old survived age GC")
	}
	mustGet(t, s, "snap") // snapshots are exempt from the age policy
}

func TestCompactionShrinksSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, MaxBytes: -1})
	big := strings.Repeat("z", 10_000)
	for i := 0; i < 50; i++ {
		mustPut(t, s, "churn", KindResult, big) // 49 dead versions
	}
	mustPut(t, s, "keep", KindResult, "kept")
	before := s.Stats().FileBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.FileBytes >= before/10 {
		t.Fatalf("compaction left %d of %d bytes", after.FileBytes, before)
	}
	if after.Compactions == 0 {
		t.Fatal("compaction not counted")
	}
	if v, _ := mustGet(t, s, "churn"); v != big {
		t.Fatal("churn lost its live value")
	}
	if v, _ := mustGet(t, s, "keep"); v != "kept" {
		t.Fatal("keep lost")
	}
	s.Close()
	s2 := openTest(t, Options{Dir: dir})
	if v, _ := mustGet(t, s2, "keep"); v != "kept" {
		t.Fatal("keep lost across reopen")
	}
	if s2.Len() != 2 {
		t.Fatalf("len after compact+reopen = %d", s2.Len())
	}
}

func TestCompactionAfterDeleteAndReput(t *testing.T) {
	// Regression: a deleted (or evicted) key that is later re-put appears
	// twice in the append-order list; compaction must still write its live
	// record exactly once and keep the byte accounting honest.
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, MaxBytes: -1})
	mustPut(t, s, "k", KindResult, "first")
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "k", KindResult, "second")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	wantRec := int64(headerSize + len("k") + len("second"))
	if st.LiveBytes != wantRec || st.ResultBytes != wantRec || st.DeadBytes != 0 {
		t.Fatalf("accounting after compact = %+v, want %d live bytes", st, wantRec)
	}
	v, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if v.Records != 1 || v.Entries != 1 {
		t.Fatalf("compacted segment holds %d records (%d entries), want 1", v.Records, v.Entries)
	}
	if val, _ := mustGet(t, s, "k"); val != "second" {
		t.Fatalf("k = %q", val)
	}
	s.Close()
	s2 := openTest(t, Options{Dir: dir})
	if rec := s2.Recovery(); rec.RecordsScanned != 1 || rec.Entries != 1 {
		t.Fatalf("recovery after compact = %+v", rec)
	}
}

func TestVerifyDirDoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	mustPut(t, s, "a", KindResult, "alpha")
	mustPut(t, s, "b", KindResult, "beta")
	s.Close()

	path := filepath.Join(dir, segmentName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := blob[:len(blob)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// VerifyDir must report the torn tail…
	v, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() || v.Entries != 1 || v.TornBytes == 0 {
		t.Fatalf("verify of torn segment = %+v", v)
	}
	// …without truncating it: the evidence survives for a second look.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(torn) {
		t.Fatalf("VerifyDir changed the segment: %d → %d bytes", len(torn), len(after))
	}

	// A missing segment verifies as an empty store.
	empty, err := VerifyDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !empty.OK() || empty.Entries != 0 {
		t.Fatalf("verify of missing segment = %+v", empty)
	}
}

func TestAutoCompaction(t *testing.T) {
	s := openTest(t, Options{Dir: t.TempDir(), MaxBytes: -1})
	big := strings.Repeat("z", 200_000)
	for i := 0; i < 20; i++ {
		mustPut(t, s, "churn", KindResult, big)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic compaction after %d bytes of churn (file %d bytes)", 20*200_000, st.FileBytes)
	}
	if v, _ := mustGet(t, s, "churn"); v != big {
		t.Fatal("live value lost by auto compaction")
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	mustPut(t, s, "a", KindResult, "alpha")
	mustPut(t, s, "b", KindResult, "beta")
	v, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || v.Records != 2 || v.Entries != 2 {
		t.Fatalf("verify = %+v", v)
	}
	s.Close()

	// Flip a byte inside the second record's value: Verify must flag the
	// unverifiable region without touching the file.
	path := filepath.Join(dir, segmentName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, Options{Dir: dir})
	if rec := s2.Recovery(); rec.Entries != 1 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery after corruption = %+v", rec)
	}
	mustGet(t, s2, "a")
	v2, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !v2.OK() || v2.Entries != 1 {
		t.Fatalf("verify after truncating recovery = %+v", v2)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), []byte("definitely not a store segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("opened a non-store file without complaint")
	}
}

func TestPutValidation(t *testing.T) {
	s := openTest(t, Options{})
	if _, err := s.Put("", KindResult, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := s.Put(strings.Repeat("k", 70_000), KindResult, []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := s.Put("k", kindTombstone, []byte("v")); err == nil {
		t.Fatal("tombstone kind accepted")
	}
}

func TestClosedStore(t *testing.T) {
	s := openTest(t, Options{})
	mustPut(t, s, "a", KindResult, "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Put("b", KindResult, []byte("v")); err == nil {
		t.Fatal("put after close succeeded")
	}
	if _, _, _, err := s.Get("a"); err == nil {
		t.Fatal("get after close succeeded")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindResult:    "result",
		KindSnapshot:  "snapshot",
		KindMeta:      "meta",
		kindTombstone: "tombstone",
		Kind(42):      "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestOrderListCompaction(t *testing.T) {
	clock := newFakeClock()
	// Budget of one small record: every new put evicts all older results,
	// churning the append-order list through many dead keys.
	s := openTest(t, Options{Dir: t.TempDir(), MaxBytes: 130, Now: clock.now})
	for i := 0; i < 500; i++ {
		mustPut(t, s, fmt.Sprintf("key-%03d", i), KindResult, "payload")
	}
	s.mu.Lock()
	orderLen, indexLen := len(s.order), len(s.index)
	s.mu.Unlock()
	if orderLen > 2*indexLen+64 {
		t.Fatalf("order list grew to %d entries for %d live keys", orderLen, indexLen)
	}
	if got, want := s.Stats().Evictions, int64(500-indexLen); got != want {
		t.Fatalf("evictions = %d, want %d", got, want)
	}
}

func TestGCAfterBudgetAlreadyEnforced(t *testing.T) {
	clock := newFakeClock()
	big := strings.Repeat("x", 1_200_000)
	// Budget holds two big records; each further put evicts the oldest, and
	// by the fourth put the dead fraction crosses the compaction threshold.
	s := openTest(t, Options{Dir: t.TempDir(), MaxBytes: 2_500_000, Now: clock.now})
	for _, key := range []string{"a", "b", "c", "d"} {
		mustPut(t, s, key, KindResult, big)
	}
	evicted, err := s.GC() // budget already enforced by the puts
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("GC evicted %v after Put already enforced the budget", evicted)
	}
	for _, gone := range []string{"a", "b"} {
		if _, _, ok, _ := s.Get(gone); ok {
			t.Fatalf("%s survived the size budget", gone)
		}
	}
	for _, kept := range []string{"c", "d"} {
		if v, _ := mustGet(t, s, kept); v != big {
			t.Fatalf("%s corrupted", kept)
		}
	}
	if st := s.Stats(); st.Compactions == 0 || st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTornCreationResets(t *testing.T) {
	dir := t.TempDir()
	// A file shorter than the magic is the residue of a crash during store
	// creation: Open must reinitialize it and report the dropped bytes.
	if err := os.WriteFile(filepath.Join(dir, segmentName), []byte(fileMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{Dir: dir})
	if rec := s.Recovery(); rec.Entries != 0 || rec.TruncatedBytes != 5 {
		t.Fatalf("recovery = %+v", rec)
	}
	mustPut(t, s, "a", KindResult, "alpha")
	if v, _ := mustGet(t, s, "a"); v != "alpha" {
		t.Fatalf("a = %q", v)
	}
}

func TestStaleTempSegmentIsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	mustPut(t, s, "a", KindResult, "alpha")
	s.Close()
	// Simulate a crash between compaction's temp write and rename.
	if err := os.WriteFile(filepath.Join(dir, segmentName+".tmp"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, Options{Dir: dir})
	if v, _ := mustGet(t, s2, "a"); v != "alpha" {
		t.Fatalf("a = %q", v)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp segment not removed")
	}
}

// BenchmarkStorePut times one append to a store holding n live results,
// within its size budget and with no age budget: the state of every durable
// daemon between evictions. Appends are not fsynced, so the time is the
// store's own work, which must not grow with n.
func BenchmarkStorePut(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s, err := Open(Options{Dir: b.TempDir(), NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			val := []byte(strings.Repeat("r", 512))
			for i := 0; i < n; i++ {
				if _, err := s.Put(fmt.Sprintf("result-%05d", i), KindResult, val); err != nil {
					b.Fatal(err)
				}
			}
			seg := []byte(strings.Repeat("s", 64))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put(fmt.Sprintf("depdb/seg/1/%d", i%64), KindSnapshot, seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
