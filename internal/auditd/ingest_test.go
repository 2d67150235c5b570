package auditd

import (
	"reflect"
	"testing"

	"indaas/internal/deps"
	"indaas/internal/watch"
)

// TestIngestRetryIsIdempotent: a client that never saw the acknowledgement
// of a committed batch sends it again. The retry is accepted and answered
// with the fingerprint the first attempt produced; it appends nothing to the
// chain on disk, registers no new snapshot, marks no watch subscription
// dirty and sends no peer anything. In a mixed group only the records that
// changed the database's state are replicated, and none of a peer's.
func TestIngestRetryIsIdempotent(t *testing.T) {
	st := openStore(t, t.TempDir())
	var replicated [][]RecordWire
	s := New(Config{Workers: 1, Store: st, Cluster: &fakeCluster{replicate: func(recs []RecordWire) {
		replicated = append(replicated, recs)
	}}})
	defer gracefulShutdown(t, s)

	batch := testRecords()
	first := mustIngest(t, s, batch)
	if !first.Durable || first.Total != len(batch) {
		t.Fatalf("first ingest: %+v", first)
	}
	sub, err := s.watchHub.Subscribe(watch.Interest{All: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	snap := s.db.Snapshot()
	segments, puts := s.snapMeta.Segments, s.Stats().Store.Puts
	replicated = nil

	retry := mustIngest(t, s, batch)
	if retry != first {
		t.Fatalf("retried ingest answered %+v, the first attempt %+v", retry, first)
	}
	if s.db.Snapshot() != snap {
		t.Fatal("a retried batch re-registered the snapshot")
	}
	if got := s.snapMeta.Segments; got != segments || s.Stats().Store.Puts != puts {
		t.Fatalf("a retried batch wrote to the store: %d → %d segments, %d → %d puts", segments, got, puts, s.Stats().Store.Puts)
	}
	if dirty, kicked, _ := sub.TakeDirty(); len(dirty) != 0 || kicked {
		t.Fatalf("a retried batch marked a subscription dirty: %v", dirty)
	}
	if replicated != nil {
		t.Fatalf("a retried batch was replicated: %v", replicated)
	}

	// One changed record among re-observations: it alone travels.
	flap := WireRecords([]deps.Record{deps.NewHardware("s1", "Disk", "S1-HDD")})[0]
	mixed := mustIngest(t, s, append(append([]RecordWire(nil), batch...), flap))
	if mixed.Fingerprint == first.Fingerprint || mixed.Total != first.Total || mixed.Added != len(batch)+1 {
		t.Fatalf("mixed ingest: %+v", mixed)
	}
	if want := [][]RecordWire{{flap}}; !reflect.DeepEqual(replicated, want) {
		t.Fatalf("replicated %v, want only the replaced disk", replicated)
	}
	if dirty, _, _ := sub.TakeDirty(); !reflect.DeepEqual(dirty, []string{"s1"}) {
		t.Fatalf("dirty subjects %v, want [s1]", dirty)
	}
	if s.snapMeta.Segments != segments+1 || s.snapMeta.Fingerprint != mixed.Fingerprint {
		t.Fatalf("chain after the mixed ingest: %+v", s.snapMeta)
	}

	// What a peer replicated here is never sent back out.
	replicated = nil
	if _, err := s.Ingest(&IngestRequest{Replicated: true, Records: WireRecords([]deps.Record{
		deps.NewHardware("s2", "Disk", "S2-HDD"),
	})}); err != nil {
		t.Fatal(err)
	}
	if replicated != nil {
		t.Fatalf("a replicated ingest was replicated onward: %v", replicated)
	}
}
